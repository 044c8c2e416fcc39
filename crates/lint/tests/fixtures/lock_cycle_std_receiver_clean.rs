// `items.len()` under the queue's guard is `VecDeque::len`: the guard's
// type is read off the `Mutex<VecDeque<u64>>` field. `history.len()`
// under the store's guard is the `VecDeque` parameter's. Resolved by
// name alone, each lands on the other type's `len`, which takes the
// other lock: a lock-order cycle that does not exist.

use std::collections::VecDeque;

pub struct Queue {
    items: Mutex<VecDeque<u64>>,
}

impl Queue {
    pub fn len(&self) -> usize {
        let items = self.items.lock();
        items.len()
    }
}

pub struct Store {
    state: Mutex<u64>,
}

impl Store {
    pub fn len(&self) -> usize {
        let state = self.state.lock();
        *state as usize
    }

    pub fn publish(&self, history: &VecDeque<u64>) -> usize {
        let _state = self.state.lock();
        history.len()
    }
}
