//! Deterministic fault injection for exercising the resilience layer
//! (`fault-inject` cargo feature only).
//!
//! A [`FaultPlan`] names which solve should fail and how. Plans come from
//! two places:
//!
//! * the [`FAULT_ENV`] (`LEMRA_FAULT`) environment variable — e.g.
//!   `LEMRA_FAULT=panic@5` makes the 6th [`ResilientSolver`] solve panic in
//!   its primary attempt; `budget@3,overflow@7:ssp` combines faults and can
//!   pin one to a named backend;
//! * programmatic [`FaultPlan::install`] for tests.
//!
//! Faults fire **once**: after a fault trips at its solve index, the
//! fallback chain retries the same index unharmed, which is exactly the
//! degradation path the plan exists to test. An unqualified fault targets
//! only the first attempt (`attempt == 0`) of its solve; a
//! backend-qualified fault (`kind@index:backend`) targets whichever attempt
//! runs that backend.
//!
//! Injection happens inside [`ResilientSolver`]'s per-attempt
//! `catch_unwind` region, so an injected panic exercises the genuine
//! containment path, not a shortcut.
//!
//! # Request-scoped faults (the allocation server)
//!
//! `lemra-server` workers wrap each request in a [`RequestScope`] guard, so
//! a fault can target one request instead of a process-wide solve index:
//!
//! * `panic@solve:req7` — panic the first solve attempt that runs anywhere
//!   inside request 7, whatever the process-wide solve count is by then.
//!   The literal index `solve` is a wildcard (any solve index) and is only
//!   accepted together with a qualifier, so a bare wildcard can never fire
//!   on an arbitrary first solve. `panic@2:req7` further restricts the
//!   wildcard to solve index 2.
//! * `conn@5` — a connection fault: [`maybe_inject_conn`] fires for
//!   request id 5, and the server kills that connection mid-response. The
//!   index position names the *request id*, not a solve; `conn` faults
//!   never reach the solver injection points.
//!
//! [`ResilientSolver`]: crate::ResilientSolver

use crate::NetflowError;
use std::cell::Cell;
use std::sync::{Mutex, OnceLock};

/// Environment variable holding the fault specification
/// (`kind@target[:qualifier]`, comma-separated; kinds: `panic`, `budget`,
/// `overflow`, `conn`; target: solve index, request id for `conn`, or the
/// wildcard `solve`; qualifier: backend name, `cache` or `req<id>`).
pub const FAULT_ENV: &str = "LEMRA_FAULT";

/// The kind of failure an injected fault simulates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Panic inside the solve (contained by the resilience boundary).
    Panic,
    /// A [`NetflowError::BudgetExceeded`] as if a budget ran out.
    Budget,
    /// A [`NetflowError::Overflow`] as if the overflow pre-check tripped.
    Overflow,
    /// Kill a server connection mid-response ([`maybe_inject_conn`]); the
    /// target index is the request id. Never reaches the solver.
    Conn,
}

impl FaultKind {
    fn parse(s: &str) -> Option<FaultKind> {
        match s {
            "panic" => Some(FaultKind::Panic),
            "budget" => Some(FaultKind::Budget),
            "overflow" => Some(FaultKind::Overflow),
            "conn" => Some(FaultKind::Conn),
            _ => None,
        }
    }
}

/// One planned fault: fail solve number `at` (0-based, counted per
/// [`ResilientSolver`](crate::ResilientSolver)) with `kind`. `at == None`
/// is the `solve` wildcard — any solve index — and always travels with a
/// qualifier. For [`FaultKind::Conn`], `at` is the request id instead.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Fault {
    kind: FaultKind,
    at: Option<u64>,
    /// Restrict to attempts running this backend (or the `cache` /
    /// `req<id>` conventions); `None` hits the first attempt of the solve
    /// regardless of backend.
    backend: Option<String>,
    fired: bool,
}

impl Fault {
    /// The request id a `req<id>` qualifier pins this fault to.
    fn request_qualifier(&self) -> Option<u64> {
        self.backend
            .as_deref()
            .and_then(|b| b.strip_prefix("req"))
            .and_then(|id| id.parse().ok())
    }
}

thread_local! {
    /// The request id the current thread is solving for, set by server
    /// workers via [`RequestScope`]; `None` outside any request.
    static REQUEST_SCOPE: Cell<Option<u64>> = const { Cell::new(None) };
}

/// RAII guard scoping fault injection on the current thread to one server
/// request: while alive, `req<id>`-qualified faults compare against
/// `request`. Nested scopes restore the outer request on drop.
///
/// # Examples
///
/// ```
/// use lemra_netflow::RequestScope;
///
/// let _scope = RequestScope::enter(7);
/// // ... solves on this thread now match `panic@solve:req7` ...
/// ```
#[derive(Debug)]
pub struct RequestScope {
    prev: Option<u64>,
}

impl RequestScope {
    /// Marks the current thread as solving for `request` until the guard
    /// drops.
    pub fn enter(request: u64) -> Self {
        let prev = REQUEST_SCOPE.with(|c| c.replace(Some(request)));
        RequestScope { prev }
    }
}

impl Drop for RequestScope {
    fn drop(&mut self) {
        let prev = self.prev;
        REQUEST_SCOPE.with(|c| c.set(prev));
    }
}

fn current_request() -> Option<u64> {
    REQUEST_SCOPE.with(Cell::get)
}

/// A deterministic schedule of injected solver faults.
///
/// # Examples
///
/// ```
/// use lemra_netflow::FaultPlan;
///
/// let plan: FaultPlan = "panic@5,budget@3:ssp".parse().unwrap();
/// plan.install();
/// // ... run the sweep under test ...
/// FaultPlan::clear();
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    faults: Vec<Fault>,
}

static ACTIVE: Mutex<Option<FaultPlan>> = Mutex::new(None);
static ENV_LOADED: OnceLock<()> = OnceLock::new();

impl FaultPlan {
    /// An empty plan (injects nothing).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a fault of `kind` at solve index `at`, hitting the solve's
    /// first attempt.
    #[must_use]
    pub fn fail_at(mut self, kind: FaultKind, at: u64) -> Self {
        self.faults.push(Fault {
            kind,
            at: Some(at),
            backend: None,
            fired: false,
        });
        self
    }

    /// Adds a fault of `kind` at solve index `at`, hitting whichever
    /// attempt runs the backend named `backend`.
    #[must_use]
    pub fn fail_backend_at(mut self, kind: FaultKind, at: u64, backend: &str) -> Self {
        self.faults.push(Fault {
            kind,
            at: Some(at),
            backend: Some(backend.to_owned()),
            fired: false,
        });
        self
    }

    /// Adds a request-scoped fault of `kind`: the first solve attempt that
    /// runs inside a [`RequestScope`] for `request` fails, at any solve
    /// index (the `kind@solve:req<id>` spelling).
    #[must_use]
    pub fn fail_request(mut self, kind: FaultKind, request: u64) -> Self {
        self.faults.push(Fault {
            kind,
            at: None,
            backend: Some(format!("req{request}")),
            fired: false,
        });
        self
    }

    /// Adds a connection fault: [`maybe_inject_conn`] fires for `request`
    /// and the server kills that connection mid-response (the
    /// `conn@<request>` spelling).
    #[must_use]
    pub fn kill_conn(mut self, request: u64) -> Self {
        self.faults.push(Fault {
            kind: FaultKind::Conn,
            at: Some(request),
            backend: None,
            fired: false,
        });
        self
    }

    /// Makes this plan the process-wide active plan, replacing any
    /// previous one (including one loaded from [`FAULT_ENV`]).
    pub fn install(&self) {
        *ACTIVE.lock().expect("fault plan lock poisoned") = Some(self.clone());
    }

    /// Clears the active plan; subsequent solves run fault-free.
    pub fn clear() {
        *ACTIVE.lock().expect("fault plan lock poisoned") = None;
    }

    /// Parses and installs the plan in [`FAULT_ENV`], if set. Called once
    /// per process by the resilience layer; explicit [`Self::install`]
    /// calls override it.
    pub(crate) fn ensure_env_plan() {
        ENV_LOADED.get_or_init(|| {
            if let Ok(spec) = std::env::var(FAULT_ENV) {
                match spec.parse::<FaultPlan>() {
                    Ok(plan) => plan.install(),
                    Err(e) => eprintln!("ignoring invalid {FAULT_ENV}: {e}"),
                }
            }
        });
    }
}

/// Loads the [`FAULT_ENV`] plan if none was installed yet. The server
/// calls this on startup so `conn@…` faults work even before the first
/// solve touches the resilience layer (which otherwise triggers the load).
pub fn ensure_env_plan() {
    FaultPlan::ensure_env_plan();
}

/// Faults from the active plan that have fired, excluding
/// [`FaultKind::Conn`] (connection kills produce no solver incident). The
/// admin endpoint reports this so CI can assert *zero non-injected
/// incidents*: total incidents must equal this count exactly.
pub fn injected_fault_count() -> u64 {
    let guard = ACTIVE.lock().expect("fault plan lock poisoned");
    guard.as_ref().map_or(0, |plan| {
        plan.faults
            .iter()
            .filter(|f| f.fired && f.kind != FaultKind::Conn)
            .count() as u64
    })
}

/// Fired [`FaultKind::Conn`] faults in the active plan.
pub fn injected_conn_count() -> u64 {
    let guard = ACTIVE.lock().expect("fault plan lock poisoned");
    guard.as_ref().map_or(0, |plan| {
        plan.faults
            .iter()
            .filter(|f| f.fired && f.kind == FaultKind::Conn)
            .count() as u64
    })
}

impl std::str::FromStr for FaultPlan {
    type Err = NetflowError;

    fn from_str(spec: &str) -> Result<Self, Self::Err> {
        let mut plan = FaultPlan::new();
        for part in spec.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            let invalid = || NetflowError::InvalidArc {
                reason: format!(
                    "invalid fault spec `{part}` (expected kind@target[:qualifier], \
                     kinds: panic, budget, overflow, conn; target: solve index, \
                     request id for conn, or the wildcard `solve`)"
                ),
            };
            let (kind, rest) = part.split_once('@').ok_or_else(invalid)?;
            let kind = FaultKind::parse(kind.trim()).ok_or_else(invalid)?;
            let (at, backend) = match rest.split_once(':') {
                Some((at, backend)) => (at, Some(backend.trim().to_owned())),
                None => (rest, None),
            };
            let at = match at.trim() {
                "solve" => None,
                n => Some(n.parse::<u64>().map_err(|_| invalid())?),
            };
            if at.is_none() && backend.is_none() {
                return Err(NetflowError::InvalidArc {
                    reason: format!(
                        "invalid fault spec `{part}`: the wildcard index `solve` \
                         needs a qualifier (e.g. panic@solve:req7)"
                    ),
                });
            }
            if let Some(b) = backend.as_deref() {
                if let Some(id) = b.strip_prefix("req") {
                    if id.parse::<u64>().is_err() {
                        return Err(NetflowError::InvalidArc {
                            reason: format!(
                                "invalid fault spec `{part}`: `req` qualifier needs \
                                 a numeric request id (e.g. req7)"
                            ),
                        });
                    }
                }
            }
            if kind == FaultKind::Conn && (at.is_none() || backend.is_some()) {
                return Err(NetflowError::InvalidArc {
                    reason: format!(
                        "invalid fault spec `{part}`: conn faults name a request id \
                         and take no qualifier (e.g. conn@5)"
                    ),
                });
            }
            plan.faults.push(Fault {
                kind,
                at,
                backend,
                fired: false,
            });
        }
        Ok(plan)
    }
}

/// Injection point inside a cache-hit solve, selected by the backend-name
/// convention `cache` (e.g. `LEMRA_FAULT=panic@0:cache`). The allocation
/// cache consults it at both of its hit paths — the exact-entry replay and
/// the adopted-reoptimizer warm solve — and the fault fires on whichever
/// hit comes first after installation. The solve index in the spec is
/// ignored, because replays never reach the resilience layer's solve
/// counter. Fires once, like every fault; the caller is expected to
/// contain the panic and fall back to a cold solve.
pub fn maybe_inject_cache() -> bool {
    let mut guard = ACTIVE.lock().expect("fault plan lock poisoned");
    let Some(plan) = guard.as_mut() else {
        return false;
    };
    for fault in &mut plan.faults {
        if fault.fired || fault.kind != FaultKind::Panic {
            continue;
        }
        if fault.backend.as_deref() == Some("cache") {
            fault.fired = true;
            return true;
        }
    }
    false
}

/// Consults the active plan for a connection fault targeting `request`
/// (`conn@<request>`). The server calls this just before writing a
/// response; a hit means "kill this connection mid-response instead".
/// Fires once, like every fault.
pub fn maybe_inject_conn(request: u64) -> bool {
    let mut guard = ACTIVE.lock().expect("fault plan lock poisoned");
    let Some(plan) = guard.as_mut() else {
        return false;
    };
    for fault in &mut plan.faults {
        if fault.fired || fault.kind != FaultKind::Conn {
            continue;
        }
        if fault.at == Some(request) {
            fault.fired = true;
            return true;
        }
    }
    false
}

/// Consults the active plan for a fault matching this attempt, marking a
/// match as fired so the fallback retry of the same solve runs clean.
///
/// A `req<id>`-qualified fault matches the first attempt of a solve whose
/// thread is inside [`RequestScope`] `id` (any solve index when the spec
/// used the `solve` wildcard); other qualified faults match by backend
/// name, and unqualified faults match the solve's first attempt.
pub(crate) fn maybe_inject(solve_index: u64, attempt: usize, backend: &str) -> Option<FaultKind> {
    let mut guard = ACTIVE.lock().expect("fault plan lock poisoned");
    let plan = guard.as_mut()?;
    for fault in &mut plan.faults {
        if fault.fired || fault.kind == FaultKind::Conn {
            continue;
        }
        if fault.at.is_some_and(|at| at != solve_index) {
            continue;
        }
        let hit = if let Some(request) = fault.request_qualifier() {
            attempt == 0 && current_request() == Some(request)
        } else {
            match &fault.backend {
                Some(b) => b == backend,
                None => attempt == 0,
            }
        };
        if hit {
            fault.fired = true;
            return Some(fault.kind);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The active plan is process-global; tests that install one must not
    /// interleave.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn serial() -> std::sync::MutexGuard<'static, ()> {
        TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn parses_single_and_combined_specs() {
        let plan: FaultPlan = "panic@5".parse().unwrap();
        assert_eq!(plan.faults.len(), 1);
        assert_eq!(plan.faults[0].kind, FaultKind::Panic);
        assert_eq!(plan.faults[0].at, Some(5));
        assert_eq!(plan.faults[0].backend, None);

        let plan: FaultPlan = " budget@3 , overflow@7:ssp ".parse().unwrap();
        assert_eq!(plan.faults.len(), 2);
        assert_eq!(plan.faults[1].kind, FaultKind::Overflow);
        assert_eq!(plan.faults[1].backend.as_deref(), Some("ssp"));
    }

    #[test]
    fn parses_request_scoped_and_conn_specs() {
        let plan: FaultPlan = "panic@solve:req7,conn@5".parse().unwrap();
        assert_eq!(plan.faults[0].at, None);
        assert_eq!(plan.faults[0].backend.as_deref(), Some("req7"));
        assert_eq!(plan.faults[0].request_qualifier(), Some(7));
        assert_eq!(plan.faults[1].kind, FaultKind::Conn);
        assert_eq!(plan.faults[1].at, Some(5));

        let plan: FaultPlan = "budget@2:req9".parse().unwrap();
        assert_eq!(plan.faults[0].at, Some(2));
        assert_eq!(plan.faults[0].request_qualifier(), Some(9));
    }

    #[test]
    fn rejects_malformed_specs() {
        assert!("panic".parse::<FaultPlan>().is_err());
        assert!("explode@3".parse::<FaultPlan>().is_err());
        assert!("panic@x".parse::<FaultPlan>().is_err());
        // A bare wildcard would fire on any first solve: refuse it.
        assert!("panic@solve".parse::<FaultPlan>().is_err());
        // `req` qualifiers must carry a numeric id.
        assert!("panic@solve:reqx".parse::<FaultPlan>().is_err());
        // Conn faults name a request id, no wildcard, no qualifier.
        assert!("conn@solve:req3".parse::<FaultPlan>().is_err());
        assert!("conn@3:ssp".parse::<FaultPlan>().is_err());
        assert!("".parse::<FaultPlan>().unwrap().faults.is_empty());
    }

    #[test]
    fn faults_fire_once_and_respect_backend_qualifiers() {
        let _serial = serial();
        let plan = FaultPlan::new()
            .fail_at(FaultKind::Budget, 2)
            .fail_backend_at(FaultKind::Panic, 4, "simplex");
        plan.install();
        // Wrong index: nothing.
        assert_eq!(maybe_inject(1, 0, "ssp"), None);
        // Unqualified fault hits only attempt 0.
        assert_eq!(maybe_inject(2, 1, "ssp"), None);
        assert_eq!(maybe_inject(2, 0, "ssp"), Some(FaultKind::Budget));
        // Fired: the fallback retry of the same index runs clean.
        assert_eq!(maybe_inject(2, 0, "ssp"), None);
        // Qualified fault waits for its backend, at any attempt.
        assert_eq!(maybe_inject(4, 0, "ssp"), None);
        assert_eq!(maybe_inject(4, 1, "simplex"), Some(FaultKind::Panic));
        assert_eq!(maybe_inject(4, 2, "simplex"), None);
        FaultPlan::clear();
        assert_eq!(maybe_inject(2, 0, "ssp"), None);
    }

    #[test]
    fn request_scoped_faults_match_only_inside_their_scope() {
        let _serial = serial();
        FaultPlan::new().fail_request(FaultKind::Panic, 7).install();
        // Outside any request scope: nothing, at any solve index.
        assert_eq!(maybe_inject(0, 0, "ssp"), None);
        {
            let _scope = RequestScope::enter(6);
            assert_eq!(maybe_inject(1, 0, "ssp"), None);
        }
        {
            let _scope = RequestScope::enter(7);
            // Wildcard index: any solve, but only attempt 0.
            assert_eq!(maybe_inject(9, 1, "ssp"), None);
            assert_eq!(maybe_inject(9, 0, "ssp"), Some(FaultKind::Panic));
            // Fired once; the retry runs clean inside the same scope.
            assert_eq!(maybe_inject(10, 0, "ssp"), None);
        }
        assert_eq!(injected_fault_count(), 1);
        FaultPlan::clear();
    }

    #[test]
    fn request_scopes_nest_and_restore() {
        let _serial = serial();
        FaultPlan::new()
            .fail_request(FaultKind::Budget, 3)
            .install();
        let outer = RequestScope::enter(1);
        {
            let _inner = RequestScope::enter(3);
            assert_eq!(maybe_inject(0, 0, "ssp"), Some(FaultKind::Budget));
        }
        // Back in request 1: a second request-3 fault would not match here.
        FaultPlan::new()
            .fail_request(FaultKind::Budget, 3)
            .install();
        assert_eq!(maybe_inject(0, 0, "ssp"), None);
        drop(outer);
        FaultPlan::clear();
    }

    #[test]
    fn conn_faults_fire_once_for_their_request_only() {
        let _serial = serial();
        FaultPlan::new().kill_conn(5).install();
        assert!(!maybe_inject_conn(4));
        // Conn faults never reach the solver injection point.
        assert_eq!(maybe_inject(5, 0, "ssp"), None);
        assert!(maybe_inject_conn(5));
        assert!(!maybe_inject_conn(5));
        assert_eq!(injected_conn_count(), 1);
        assert_eq!(injected_fault_count(), 0);
        FaultPlan::clear();
    }

    #[test]
    fn cache_faults_match_the_cache_qualifier_and_fire_once() {
        let _serial = serial();
        let plan: FaultPlan = "panic@0:cache".parse().unwrap();
        plan.install();
        assert!(maybe_inject_cache());
        assert!(!maybe_inject_cache());
        // Index-targeted and backend-targeted faults never hit the replay.
        let plan: FaultPlan = "panic@0".parse().unwrap();
        plan.install();
        assert!(!maybe_inject_cache());
        FaultPlan::clear();
    }
}
