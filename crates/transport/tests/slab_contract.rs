//! The contract of `Transport::send_slab`: a malformed slab is rejected at
//! the door — each way of being malformed with its own message — and a slab
//! composes with word-at-a-time sends in call order.

use cc_runtime::Executor;
use cc_transport::{LinkSlab, Transport, TransportKind};

fn fabric(n: usize) -> Box<dyn Transport> {
    TransportKind::InMemory.build(n, Executor::default())
}

#[test]
#[should_panic(expected = "laid out for n=3 handed to a fabric of n=2")]
fn rejects_a_slab_sized_for_another_clique() {
    fabric(2).send_slab(LinkSlab::empty(3));
}

#[test]
#[should_panic(expected = "offset table has 4 entries, expected n*n+1 = 5")]
fn rejects_a_short_offset_table() {
    fabric(2).send_slab(LinkSlab::from_raw(2, vec![0, 1, 1, 1], vec![9]));
}

#[test]
#[should_panic(expected = "offsets must start at 0")]
fn rejects_offsets_that_skip_leading_words() {
    fabric(2).send_slab(LinkSlab::from_raw(2, vec![1, 1, 1, 1, 1], vec![9]));
}

#[test]
#[should_panic(expected = "offsets are not monotone at link index 1")]
fn rejects_non_monotone_offsets() {
    fabric(2).send_slab(LinkSlab::from_raw(2, vec![0, 2, 1, 2, 2], vec![9, 9]));
}

#[test]
#[should_panic(expected = "offsets end at 1 but the slab holds 3 words")]
fn rejects_offsets_that_do_not_cover_the_words() {
    fabric(2).send_slab(LinkSlab::from_raw(2, vec![0, 0, 1, 1, 1], vec![9, 9, 9]));
}

#[test]
fn sends_and_slabs_concatenate_per_link_in_call_order() {
    let tcp = TransportKind::Tcp {
        workers: 2,
        resident: false,
        addr: None,
    };
    for kind in [TransportKind::InMemory, tcp] {
        let mut t = kind.build(3, Executor::default());
        t.send(0, 1, &[1]);
        t.send(2, 0, &[9]);
        t.send_slab(LinkSlab::from_runs(
            3,
            [(0usize, 1usize, &[2u64, 3][..]), (1, 1, &[7][..])].into_iter(),
        ));
        t.send(0, 1, &[4]);
        t.send_slab(LinkSlab::from_runs(
            3,
            [(0usize, 1usize, &[5u64][..])].into_iter(),
        ));
        let rd = t.finish_round();
        assert_eq!(rd.unicast.link(0, 1), &[1, 2, 3, 4, 5], "{kind:?}");
        assert_eq!(rd.unicast.link(2, 0), &[9], "{kind:?}");
        assert_eq!(rd.unicast.link(1, 1), &[7], "{kind:?}");
        let loads: Vec<_> = rd.loads.iter().collect();
        assert_eq!(loads, vec![(0, 1, 5), (2, 0, 1)], "{kind:?}");
        // The round drained: nothing leaks into the next one.
        assert_eq!(t.finish_round().unicast, LinkSlab::empty(3), "{kind:?}");
    }
}
