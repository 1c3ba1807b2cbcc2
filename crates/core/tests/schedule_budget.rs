//! The relay-schedule cache's budget holds every routed step of a fast
//! product up to n = 256: a second product of the same size draws nothing.
//! The cache is process-wide, so this is the only test of its binary.

use cc_algebra::{IntRing, Matrix};
use cc_clique::{route_schedule_stats, Clique, CliqueConfig};
use cc_core::{fast_mm, RowMatrix};

#[test]
fn a_fast_product_at_n_256_is_served_from_the_cache_the_second_time() {
    let n = 256;
    let matrix = |salt: usize| {
        RowMatrix::from_matrix(&Matrix::from_fn(n, n, |i, j| {
            ((i * 7 + j * 3 + salt) % 9) as i64 - 4
        }))
    };
    let (a, b) = (matrix(1), matrix(2));
    let mut clique = Clique::with_config(n, CliqueConfig::default());
    let want = fast_mm::multiply_auto(&mut clique, &IntRing, &a, &b);
    let (hits, misses, bytes) = route_schedule_stats();
    assert_eq!(
        (hits, misses),
        (0, 4),
        "a cold product draws its four steps"
    );
    // The figure `SCHEDULE_CACHE_BYTES`' doc quotes; it is under 8 MiB.
    assert_eq!(bytes, 7_014_656);
    assert!(bytes <= 8 << 20);

    let got = fast_mm::multiply_auto(&mut clique, &IntRing, &a, &b);
    assert_eq!(got, want);
    assert_eq!(
        route_schedule_stats(),
        (4, 4, bytes),
        "all four steps stayed cached"
    );
}
