//! One shared environment-knob parser for every `CC_*` configuration
//! variable.
//!
//! Several layers read their defaults from the environment — `CC_EXECUTOR`
//! (execution backend), `CC_TRANSPORT` (message fabric), `CC_NETSIM`
//! (network conditioning), `CC_SERVICE` (query-serving scheduler),
//! `CC_KERNEL` / `CC_TILE` (node-local kernel), `CC_TRACE` (this crate's
//! own trace level) — and all of them want the same contract:
//!
//! * **unset** means "use the fallback", silently;
//! * a **parseable** value wins;
//! * a **malformed** value is a misconfiguration, not a preference for the
//!   default: it is reported once per process *per variable*, and then the
//!   fallback is used.
//!
//! This module lives in `cc-telemetry` (the bottom of the crate stack) so
//! the warning path can flow through the telemetry sink: when the global
//! [`crate::Telemetry`] is installed and enabled, a malformed value becomes
//! an [`Event::ConfigWarning`] plus a `config_warnings` counter increment in
//! the capture; otherwise it falls back to stderr exactly as before.
//! `cc-runtime` re-exports it as `cc_runtime::env_config`, so existing call
//! sites are unchanged.
//!
//! [`Event::ConfigWarning`]: crate::Event::ConfigWarning

use std::collections::BTreeSet;
use std::fmt;
use std::sync::{Mutex, OnceLock};

use crate::event::Event;
use crate::TraceLevel;

/// Resolves an environment spec against a parser without touching the
/// environment: `None` (variable unset) resolves to the fallback, a
/// parseable value to its parse, and a malformed value to an `Err` carrying
/// the raw spec so the caller can report the misconfiguration instead of
/// swallowing it.
pub fn resolve<T>(
    spec: Option<&str>,
    fallback: T,
    parse: impl FnOnce(&str) -> Option<T>,
) -> Result<T, String> {
    match spec {
        None => Ok(fallback),
        Some(raw) => parse(raw).ok_or_else(|| raw.to_string()),
    }
}

/// Reads `var` from the process environment and parses it with `parse`,
/// falling back to `fallback` when the variable is unset. A value `parse`
/// rejects is reported once per process per variable ([`warn_once`]) before
/// falling back — silently running with the wrong configuration is how a
/// run stops testing what it claims to.
///
/// `owner` names the reporting crate (`"cc-runtime"`, `"cc-transport"`, …)
/// and `expected` describes the accepted grammar for the warning text.
pub fn from_env_or<T: fmt::Debug>(
    owner: &str,
    var: &'static str,
    expected: &str,
    fallback: T,
    parse: impl FnOnce(&str) -> Option<T>,
) -> T {
    match std::env::var(var).ok() {
        None => fallback,
        Some(raw) => match parse(&raw) {
            Some(v) => v,
            None => {
                warn_once(owner, var, &raw, expected, &format!("{fallback:?}"));
                fallback
            }
        },
    }
}

/// Registry of variables whose malformed values were already reported, so
/// each knob warns at most once per process no matter how many executors,
/// transports, or services are constructed.
fn warned_vars() -> &'static Mutex<BTreeSet<&'static str>> {
    static WARNED: OnceLock<Mutex<BTreeSet<&'static str>>> = OnceLock::new();
    WARNED.get_or_init(|| Mutex::new(BTreeSet::new()))
}

/// Inserts `var` into the once-per-process registry; `true` means this is
/// the first report for the variable and the warning should be delivered.
fn first_report(var: &'static str) -> bool {
    warned_vars()
        .lock()
        .expect("env warning registry")
        .insert(var)
}

/// Reports a malformed environment value once per process per variable.
/// When the global telemetry handle is already installed and enabled at
/// [`TraceLevel::Summary`], the warning is emitted into the sink as an
/// [`Event::ConfigWarning`] and the `config_warnings` counter is bumped;
/// otherwise it prints to stderr. Exposed for callers whose fallback
/// construction does not fit [`from_env_or`].
///
/// [`Event::ConfigWarning`]: crate::Event::ConfigWarning
pub fn warn_once(owner: &str, var: &'static str, raw: &str, expected: &str, using: &str) {
    if !first_report(var) {
        return;
    }
    // Deliberately `global_if_initialised`, not `global()`: a warning fired
    // *while* `Telemetry::from_env` is initialising the global (e.g. some
    // other knob parsed during sink construction) must not re-enter the
    // `OnceLock` initialiser.
    let delivered = crate::global_if_initialised().is_some_and(|tel| {
        if !tel.enabled(TraceLevel::Summary) {
            return false;
        }
        tel.emit(TraceLevel::Summary, || Event::ConfigWarning {
            owner: owner.to_string(),
            var,
            raw: raw.to_string(),
            expected: expected.to_string(),
            using: using.to_string(),
        });
        tel.emit(TraceLevel::Summary, || Event::Counter {
            name: "config_warnings",
            delta: 1,
        });
        true
    });
    if !delivered {
        eprintln!(
            "{owner}: ignoring unrecognised {var}={raw:?} (expected {expected}); using {using}"
        );
    }
}

/// Stderr-only variant of [`warn_once`], for the one caller that runs
/// *inside* global-telemetry initialisation ([`crate::Telemetry::from_env`]
/// reporting a malformed `CC_TRACE`): it shares the once-per-process
/// registry but never consults the global handle.
pub fn warn_once_stderr(owner: &str, var: &'static str, raw: &str, expected: &str, using: &str) {
    if first_report(var) {
        eprintln!(
            "{owner}: ignoring unrecognised {var}={raw:?} (expected {expected}); using {using}"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The generic resolution contract every `CC_*` knob shares
    // (`TransportKind::resolve` in the transport is a thin wrapper over
    // this helper).

    #[test]
    fn unset_specs_resolve_to_the_fallback_silently() {
        assert_eq!(resolve(None, 96usize, |r| r.parse().ok()), Ok(96));
        assert_eq!(resolve(None, "fb", |_| Some("parsed")), Ok("fb"));
    }

    #[test]
    fn parseable_specs_win_over_the_fallback() {
        assert_eq!(resolve(Some("0"), 96usize, |r| r.parse().ok()), Ok(0));
        assert_eq!(resolve(Some("128"), 96usize, |r| r.parse().ok()), Ok(128));
    }

    #[test]
    fn malformed_specs_surface_as_errors_carrying_the_raw_value() {
        // The historical bug class this guards: `parallel:banana` silently
        // meaning "machine-sized", `socket:banana` silently meaning
        // "default workers". A rejected spec must never resolve silently.
        let parse = |r: &str| r.parse::<usize>().ok();
        assert_eq!(resolve(Some("banana"), 96, parse), Err("banana".into()));
        assert_eq!(resolve(Some("-3"), 96, parse), Err("-3".into()));
        assert_eq!(resolve(Some(""), 96, parse), Err(String::new()));
        assert_eq!(resolve(Some("96ms"), 96, parse), Err("96ms".into()));
    }

    #[test]
    fn warning_registry_fires_once_per_variable() {
        // `warn_once` only delivers on first insertion; the registry itself
        // is the observable contract (stderr is not capturable here).
        let before = warned_vars().lock().unwrap().contains("CC_TEST_VAR");
        assert!(!before, "test variable must start unreported");
        warn_once("cc-runtime", "CC_TEST_VAR", "junk", "anything", "default");
        warn_once("cc-runtime", "CC_TEST_VAR", "junk2", "anything", "default");
        assert!(warned_vars().lock().unwrap().contains("CC_TEST_VAR"));
    }

    #[test]
    fn stderr_variant_shares_the_registry() {
        warn_once_stderr(
            "cc-telemetry",
            "CC_TEST_VAR_2",
            "junk",
            "anything",
            "default",
        );
        assert!(warned_vars().lock().unwrap().contains("CC_TEST_VAR_2"));
        // A later sink-routed warn for the same variable is suppressed.
        warn_once(
            "cc-telemetry",
            "CC_TEST_VAR_2",
            "junk",
            "anything",
            "default",
        );
    }
}
