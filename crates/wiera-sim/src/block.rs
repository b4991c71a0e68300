//! The before-block hook: a thread-scoped, one-shot callback that every
//! primitive able to park a data-path thread runs just before it parks, with
//! no tracked lock held. A replica arms it around an application op to hand
//! its inbox to another thread only when the op is about to block.

use std::cell::Cell;

thread_local! {
    static HOOK: Cell<Option<Box<dyn FnOnce()>>> = const { Cell::new(None) };
}

/// Arm `hook` on this thread, replacing any armed one.
pub fn set(hook: impl FnOnce() + 'static) {
    HOOK.set(Some(Box::new(hook)));
}

/// Disarm this thread's hook, if it has not run.
pub fn clear() {
    HOOK.take();
}

/// Run and disarm this thread's hook, if one is armed: the thread is about
/// to park.
pub fn before_block() {
    if let Some(hook) = HOOK.take() {
        hook();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::rc::Rc;

    #[test]
    fn an_armed_hook_runs_once_and_a_cleared_one_never() {
        let runs = Rc::new(Cell::new(0));
        let counted = runs.clone();
        set(move || counted.set(counted.get() + 1));
        before_block();
        before_block();
        assert_eq!(runs.get(), 1);
        let counted = runs.clone();
        set(move || counted.set(counted.get() + 1));
        clear();
        before_block();
        assert_eq!(runs.get(), 1);
        // Another thread's hook is not this one's.
        let counted = runs.clone();
        set(move || counted.set(counted.get() + 1));
        std::thread::spawn(before_block).join().unwrap();
        assert_eq!(runs.get(), 1);
        clear();
    }
}
