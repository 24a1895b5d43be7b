//! Process-wide runtime configuration, read once.
//!
//! The knobs that used to be scattered env reads — `LEMRA_THREADS` in the
//! batch solver *and again* in the bench drivers, `LEMRA_COLD` per
//! `SweepAllocator`, the backend choice nowhere at all — live in one
//! [`LemraConfig`], parsed from the environment exactly once per process
//! (or installed explicitly by a binary's flag parser before first use).
//! Every consumer reads the same snapshot, so a sweep driver and the batch
//! solver can never disagree about the thread count mid-run.
//!
//! Parsing is strict: a malformed variable is an error carrying the list of
//! accepted values, never a silent fallback (a mistyped
//! `LEMRA_BACKEND=simplx` used to run `Ssp` without a word).

use crate::solver::Backend;
use crate::NetflowError;
use std::sync::OnceLock;

/// Environment variable selecting the min-cost-flow [`Backend`]
/// (`ssp` or `simplex`; default `ssp`).
pub const BACKEND_ENV: &str = "LEMRA_BACKEND";

/// Environment variable overriding the worker-thread count (`1` forces
/// serial execution; useful for debugging and timing comparisons).
pub const THREADS_ENV: &str = "LEMRA_THREADS";

/// Environment variable: set `LEMRA_COLD=1` to make sweep drivers
/// cold-solve every point (escape hatch for debugging and for timing
/// comparisons against the warm path).
pub const COLD_ENV: &str = "LEMRA_COLD";

/// The process-wide configuration snapshot.
///
/// Obtain it with [`LemraConfig::get`]; binaries with their own flags build
/// one ([`LemraConfig::from_env`] then field overrides) and
/// [`install`](LemraConfig::install) it before any library call.
///
/// # Examples
///
/// ```
/// use lemra_netflow::LemraConfig;
///
/// let cfg = LemraConfig::get();
/// assert!(cfg.threads.map_or(true, |n| n > 0));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LemraConfig {
    /// Min-cost-flow algorithm the pipeline solve stages use.
    pub backend: Backend,
    /// Worker-thread cap for batched solves and parallel sweeps; `None`
    /// means one per item up to the machine's parallelism.
    pub threads: Option<usize>,
    /// Force sweep drivers to cold-solve every point (no warm-start reuse).
    pub cold: bool,
    /// Collect and report per-stage timings and solver counters.
    pub timings: bool,
    /// Whether the `validate` cargo feature (in-solve invariant auditing)
    /// is compiled in — informational, for reports.
    pub validate: bool,
}

impl Default for LemraConfig {
    fn default() -> Self {
        Self {
            backend: Backend::Ssp,
            threads: None,
            cold: false,
            timings: false,
            validate: cfg!(feature = "validate"),
        }
    }
}

static CONFIG: OnceLock<LemraConfig> = OnceLock::new();

impl LemraConfig {
    /// Builds a configuration from the environment ([`BACKEND_ENV`],
    /// [`THREADS_ENV`], [`COLD_ENV`]); unset variables fall back to the
    /// defaults. Timings are flag-only (no env variable), so they default
    /// to off.
    ///
    /// # Errors
    ///
    /// [`NetflowError::InvalidArc`] naming the offending variable and the
    /// accepted values when one is set but malformed — a typo'd
    /// `LEMRA_BACKEND` must fail loudly, not silently run a different
    /// solver than the one the measurement was labelled with.
    pub fn from_env() -> Result<Self, NetflowError> {
        Self::from_vars(
            std::env::var(BACKEND_ENV).ok().as_deref(),
            std::env::var(THREADS_ENV).ok().as_deref(),
            std::env::var(COLD_ENV).ok().as_deref(),
        )
    }

    /// [`from_env`](Self::from_env) over explicit values (`None` = unset),
    /// so parsing is testable without racy process-environment mutation.
    ///
    /// # Errors
    ///
    /// Same as [`from_env`](Self::from_env).
    pub fn from_vars(
        backend: Option<&str>,
        threads: Option<&str>,
        cold: Option<&str>,
    ) -> Result<Self, NetflowError> {
        let backend = backend.map_or(Ok(Backend::default()), str::parse)?;
        let threads = threads
            .map(|v| {
                v.parse::<usize>()
                    .ok()
                    .filter(|&n| n > 0)
                    .ok_or_else(|| NetflowError::InvalidArc {
                        reason: format!("{THREADS_ENV}=`{v}` is not a positive thread count"),
                    })
            })
            .transpose()?;
        let cold = cold.is_some_and(|v| !v.is_empty() && v != "0");
        Ok(Self {
            backend,
            threads,
            cold,
            ..Self::default()
        })
    }

    /// The process-wide snapshot, initialised from the environment on first
    /// call (unless a binary [`install`](Self::install)ed one earlier).
    ///
    /// # Panics
    ///
    /// On a malformed environment variable (see
    /// [`from_env`](Self::from_env)) — library code has no channel to
    /// surface the error, and proceeding with a silently-substituted
    /// default would falsify any measurement keyed on the variable.
    /// Binaries that want a graceful message call `from_env` themselves and
    /// install the result.
    pub fn get() -> &'static LemraConfig {
        CONFIG.get_or_init(|| match Self::from_env() {
            Ok(cfg) => cfg,
            Err(e) => panic!("invalid lemra environment: {e}"),
        })
    }

    /// Installs `self` as the process-wide snapshot. Must run before the
    /// first [`get`](Self::get) (i.e. before any solver/pipeline call);
    /// returns whether it won the slot. Binaries call this right after flag
    /// parsing; libraries never call it.
    pub fn install(self) -> bool {
        CONFIG.set(self).is_ok()
    }

    /// Effective worker count for `len` independent items: one per item up
    /// to the machine's parallelism, capped by [`Self::threads`].
    pub fn worker_count(&self, len: usize) -> usize {
        let hw = self.threads.unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        });
        hw.min(len).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_ssp_warm_untimed() {
        let cfg = LemraConfig::default();
        assert_eq!(cfg.backend, Backend::Ssp);
        assert!(!cfg.cold);
        assert!(!cfg.timings);
        assert_eq!(cfg.threads, None);
    }

    #[test]
    fn worker_count_honours_cap_and_len() {
        let cfg = LemraConfig {
            threads: Some(4),
            ..LemraConfig::default()
        };
        assert_eq!(cfg.worker_count(100), 4);
        assert_eq!(cfg.worker_count(2), 2);
        assert_eq!(cfg.worker_count(0), 1);
        let serial = LemraConfig {
            threads: Some(1),
            ..LemraConfig::default()
        };
        assert_eq!(serial.worker_count(100), 1);
    }

    #[test]
    fn get_returns_a_stable_snapshot() {
        assert_eq!(LemraConfig::get(), LemraConfig::get());
    }

    #[test]
    fn from_vars_parses_each_knob() {
        let cfg = LemraConfig::from_vars(Some("simplex"), Some("3"), Some("1")).unwrap();
        assert_eq!(cfg.backend, Backend::Simplex);
        assert_eq!(cfg.threads, Some(3));
        assert!(cfg.cold);
        let unset = LemraConfig::from_vars(None, None, None).unwrap();
        assert_eq!(unset, LemraConfig::default());
        let off = LemraConfig::from_vars(None, None, Some("0")).unwrap();
        assert!(!off.cold);
    }

    #[test]
    fn unknown_backend_is_an_error_listing_valid_names() {
        let err = LemraConfig::from_vars(Some("simplx"), None, None).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("simplx"), "names the offender: {msg}");
        assert!(msg.contains("ssp, simplex"), "lists the backends: {msg}");
    }

    /// The removed backends are rejected by `LEMRA_BACKEND` and by the
    /// binaries' `--backend` flag (both parse through `Backend::from_str`),
    /// never silently mapped onto a remaining solver.
    #[test]
    fn removed_backends_are_rejected() {
        for name in ["scaling", "cycle", "cost_scaling", "par_ssp", "auto"] {
            let env = LemraConfig::from_vars(Some(name), None, None)
                .unwrap_err()
                .to_string();
            let flag = name.parse::<Backend>().unwrap_err().to_string();
            for msg in [env, flag] {
                assert!(msg.contains(&format!("`{name}`")), "names `{name}`: {msg}");
                assert!(msg.contains("ssp, simplex"), "lists the backends: {msg}");
            }
        }
    }

    #[test]
    fn malformed_numeric_knobs_are_errors() {
        assert!(LemraConfig::from_vars(None, Some("zero"), None).is_err());
        assert!(LemraConfig::from_vars(None, Some("0"), None).is_err());
    }
}
