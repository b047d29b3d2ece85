//! Cooperative per-cell execution budgets: a deadline plus a cancellation
//! flag that iterative solvers poll between outer iterations.
//!
//! The harness installs a budget around one experiment cell; every solver
//! loop in the workspace (Sinkhorn scalings, power/Lanczos iterations,
//! IsoRank/GWL/NetAlign outer iterations, auction rounds) checks
//! [`exceeded`] once per iteration and winds down gracefully instead of
//! running away — the cell is then *recorded* as timed out rather than
//! killed from outside.
//!
//! # Scope and propagation
//!
//! The current budget is **thread-local**, not process-global, so
//! concurrently running cells (or tests) never observe each other's
//! deadlines. The fork/join helpers in this crate propagate the installing
//! thread's budget into their scoped workers, which is the only way worker
//! threads are created in this workspace — a solver parallelized through
//! [`crate::map_collect`] or [`crate::for_each_row_block_mut`] therefore sees
//! the same budget on every thread.
//!
//! Polling [`exceeded`] costs one thread-local read plus (when a deadline is
//! armed) one `Instant::now()`; it is meant for *outer* loops, not inner
//! per-element kernels.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Shared state of one installed budget.
#[derive(Debug)]
pub struct BudgetState {
    /// Wall-clock instant after which [`exceeded`] reports `true`; `None`
    /// means the budget only responds to [`cancel_current`].
    deadline: Option<Instant>,
    /// Cooperative cancellation flag.
    cancelled: AtomicBool,
}

impl BudgetState {
    fn is_exceeded(&self) -> bool {
        self.cancelled.load(Ordering::Relaxed) || self.deadline.is_some_and(|d| Instant::now() >= d)
    }

    /// Cooperatively cancels this budget from *any* thread holding the
    /// `Arc<BudgetState>` (obtained via [`current`]): every thread that
    /// installed or adopted it observes [`exceeded`] `== true` from now on.
    /// This is how the serving layer cancels an in-flight request from a
    /// connection-handler thread while a worker thread runs the job.
    pub fn cancel(&self) {
        self.cancelled.store(true, Ordering::Relaxed);
    }
}

thread_local! {
    static CURRENT: RefCell<Option<Arc<BudgetState>>> = const { RefCell::new(None) };
}

/// Restores the previously installed budget (if any) when dropped, so
/// budgets nest correctly and a panicking cell cannot leak its deadline
/// into the next one.
#[must_use = "dropping the guard immediately uninstalls the budget"]
#[derive(Debug)]
pub struct BudgetGuard {
    prev: Option<Arc<BudgetState>>,
}

impl Drop for BudgetGuard {
    fn drop(&mut self) {
        CURRENT.with(|c| *c.borrow_mut() = self.prev.take());
    }
}

fn swap_in(next: Option<Arc<BudgetState>>) -> BudgetGuard {
    let prev = CURRENT.with(|c| std::mem::replace(&mut *c.borrow_mut(), next));
    BudgetGuard { prev }
}

/// Installs a budget on the current thread: [`exceeded`] reports `true` once
/// `timeout` has elapsed (measured from now) or after [`cancel_current`].
/// `timeout: None` arms only the cancellation flag.
///
/// The returned guard restores the previous budget when dropped.
pub fn install(timeout: Option<Duration>) -> BudgetGuard {
    let state = Arc::new(BudgetState {
        deadline: timeout.map(|t| Instant::now() + t),
        cancelled: AtomicBool::new(false),
    });
    swap_in(Some(state))
}

/// Adopts an already-running budget (from [`current`]) on this thread —
/// how the fork/join helpers extend the installing thread's budget to
/// their scoped workers. `None` adopts "no budget".
pub fn adopt(budget: Option<Arc<BudgetState>>) -> BudgetGuard {
    swap_in(budget)
}

/// The budget installed on the current thread, for propagation via
/// [`adopt`]. Cheap (one `Arc` clone).
pub fn current() -> Option<Arc<BudgetState>> {
    CURRENT.with(|c| c.borrow().clone())
}

/// Cooperatively cancels the current budget: every thread sharing it (the
/// installer and any workers it forked) observes [`exceeded`] `== true`
/// from now on. No-op without an installed budget.
pub fn cancel_current() {
    if let Some(b) = current() {
        b.cancel();
    }
}

/// Whether the current thread's budget has expired or been cancelled.
/// Always `false` when no budget is installed.
pub fn exceeded() -> bool {
    CURRENT.with(|c| c.borrow().as_ref().is_some_and(|b| b.is_exceeded()))
}

/// Whether any budget (deadline-armed or cancel-only) is installed on the
/// current thread.
pub fn active() -> bool {
    CURRENT.with(|c| c.borrow().is_some())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_budget_never_exceeds() {
        assert!(!active());
        assert!(!exceeded());
        cancel_current(); // no-op
        assert!(!exceeded());
    }

    #[test]
    fn zero_timeout_exceeds_immediately_and_guard_restores() {
        {
            let _g = install(Some(Duration::ZERO));
            assert!(active());
            assert!(exceeded());
        }
        assert!(!active());
        assert!(!exceeded());
    }

    #[test]
    fn generous_deadline_is_not_exceeded_until_cancelled() {
        let _g = install(Some(Duration::from_secs(3600)));
        assert!(!exceeded());
        cancel_current();
        assert!(exceeded());
    }

    #[test]
    fn cancel_only_budget() {
        let _g = install(None);
        assert!(active());
        assert!(!exceeded());
        cancel_current();
        assert!(exceeded());
    }

    #[test]
    fn budgets_nest_and_restore() {
        let _outer = install(Some(Duration::from_secs(3600)));
        assert!(!exceeded());
        {
            let _inner = install(Some(Duration::ZERO));
            assert!(exceeded());
        }
        // Outer budget restored, still healthy.
        assert!(active());
        assert!(!exceeded());
    }

    #[test]
    fn adopted_budget_shares_cancellation() {
        let _g = install(None);
        let shared = current();
        let handle = {
            let shared = shared.clone();
            std::thread::spawn(move || {
                let _w = adopt(shared);
                let start = Instant::now();
                while !exceeded() {
                    if start.elapsed() > Duration::from_secs(10) {
                        return false;
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
                true
            })
        };
        cancel_current();
        assert!(handle.join().expect("worker finished"), "worker saw cancellation");
    }

    #[test]
    fn cancel_through_the_shared_state_reaches_the_installer() {
        let _g = install(None);
        let shared = current().expect("budget installed");
        assert!(!exceeded());
        // Another thread cancels via the Arc without adopting the budget.
        let shared2 = shared.clone();
        std::thread::spawn(move || shared2.cancel()).join().unwrap();
        assert!(exceeded());
    }

    #[test]
    fn budgets_are_thread_local() {
        let _g = install(Some(Duration::ZERO));
        assert!(exceeded());
        // A thread that does NOT adopt sees no budget.
        let saw = std::thread::spawn(|| (active(), exceeded())).join().unwrap();
        assert_eq!(saw, (false, false));
    }
}
