//! [`Chunked`]: a copy-on-write sequence held in shared chunks of
//! [`CHUNK`] elements, so that an edit copies the chunk it lands in and
//! never the whole sequence.
//!
//! The snapshot's tails (incidents, samples, traces) and its per-machine
//! task lists are `Chunked`. Every clone shares every chunk; an edit
//! through one clone first copies what it writes, so a clone a reader
//! holds is never written:
//!
//! - an append copies the open (last) chunk and the chunk index;
//! - an eviction from the front moves a start offset and drops the whole
//!   chunks behind it, copying the index;
//! - replacing an element copies the one chunk holding it and the index.
//!
//! An edit therefore clones at most `CHUNK` elements and `len / CHUNK + 1`
//! chunk pointers besides what it adds, however long the sequence, and a
//! sequence no edit touched costs nothing to publish again. Elements are
//! cheap to clone: an `Arc`, or a small value such as a CPI sample, which
//! a chunk then holds inline.

use std::fmt;
use std::sync::Arc;

/// Elements per chunk.
pub const CHUNK: usize = 32;

type Chunk<T> = Arc<Vec<T>>;

/// A sequence in shared chunks (see the module doc).
pub struct Chunked<T> {
    /// Every chunk holds [`CHUNK`] elements except the last, which holds
    /// one to `CHUNK`.
    chunks: Arc<Vec<Chunk<T>>>,
    /// Elements of the first chunk already evicted (`< CHUNK`).
    head: usize,
    len: usize,
}

impl<T: Clone> Chunked<T> {
    /// An empty sequence.
    pub fn new() -> Chunked<T> {
        Chunked::default()
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether there are no elements.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Element `i`, oldest first.
    pub fn get(&self, i: usize) -> Option<&T> {
        if i >= self.len {
            return None;
        }
        let at = self.head + i;
        self.chunks.get(at / CHUNK)?.get(at % CHUNK)
    }

    /// The newest element.
    pub fn last(&self) -> Option<&T> {
        self.chunks.last()?.last().filter(|_| self.len > 0)
    }

    /// Every element, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &T> + '_ {
        self.chunks.iter().flat_map(|c| c.iter()).skip(self.head)
    }

    /// Appends one element.
    pub fn push(&mut self, item: T) {
        self.extend(std::iter::once(item));
    }

    /// Appends every item, copying the chunk index and the open chunk at
    /// most once however many there are.
    pub fn extend(&mut self, items: impl IntoIterator<Item = T>) {
        let mut items = items.into_iter().peekable();
        if items.peek().is_none() {
            return;
        }
        let capacity = self.chunks.len() + 1;
        let chunks = owned(&mut self.chunks, capacity);
        while items.peek().is_some() {
            if chunks.last().map_or(0, |open| CHUNK - open.len()) == 0 {
                chunks.push(Arc::new(Vec::with_capacity(CHUNK)));
            }
            if let Some(open) = chunks.last_mut() {
                let open = owned(open, CHUNK);
                let before = open.len();
                open.extend(items.by_ref().take(CHUNK - before));
                self.len += open.len() - before;
            }
        }
    }

    /// Drops the `n` oldest elements (all of them if there are fewer).
    pub fn drop_front(&mut self, n: usize) {
        let n = n.min(self.len);
        if n == 0 {
            return;
        }
        self.len -= n;
        self.head += n;
        let whole = self.head / CHUNK;
        if whole > 0 {
            owned(&mut self.chunks, 0).drain(..whole);
            self.head %= CHUNK;
        }
    }

    /// Replaces element `i`; returns whether there was one.
    pub fn set(&mut self, i: usize, item: T) -> bool {
        if i >= self.len {
            return false;
        }
        let at = self.head + i;
        let chunk = owned(&mut self.chunks, 0).get_mut(at / CHUNK);
        match chunk.and_then(|c| owned(c, CHUNK).get_mut(at % CHUNK)) {
            Some(slot) => {
                *slot = item;
                true
            }
            None => false,
        }
    }

    /// Whether both share one chunk index: what no edit has touched since
    /// one was cloned from the other.
    pub fn ptr_eq(a: &Chunked<T>, b: &Chunked<T>) -> bool {
        Arc::ptr_eq(&a.chunks, &b.chunks) && a.head == b.head && a.len == b.len
    }
}

/// `v`, made unshared: copied, with room for `capacity` elements, if a
/// clone still holds it.
fn owned<V: Clone>(v: &mut Arc<Vec<V>>, capacity: usize) -> &mut Vec<V> {
    if Arc::get_mut(v).is_none() {
        let mut copy = Vec::with_capacity(capacity.max(v.len()));
        copy.extend(v.iter().cloned());
        *v = Arc::new(copy);
    }
    Arc::make_mut(v)
}

impl<T> Clone for Chunked<T> {
    fn clone(&self) -> Self {
        Chunked {
            chunks: Arc::clone(&self.chunks),
            head: self.head,
            len: self.len,
        }
    }
}

impl<T> Default for Chunked<T> {
    fn default() -> Self {
        Chunked {
            chunks: Arc::default(),
            head: 0,
            len: 0,
        }
    }
}

impl<T: Clone + PartialEq> PartialEq for Chunked<T> {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.iter().eq(other.iter())
    }
}

impl<T: Clone + fmt::Debug> fmt::Debug for Chunked<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<T: Clone> FromIterator<T> for Chunked<T> {
    fn from_iter<I: IntoIterator<Item = T>>(items: I) -> Self {
        let mut out = Chunked::new();
        out.extend(items);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;
    use std::collections::VecDeque;

    type Tail = Chunked<Arc<u32>>;
    type Model = VecDeque<Arc<u32>>;

    /// One edit: append `n` one by one, drop the `n` oldest, replace
    /// element `n` (modulo the length) with a fresh one, or append `n` in
    /// one batch.
    fn apply(tail: &mut Tail, model: &mut Model, op: (u8, usize), next: &mut u32) {
        match op {
            (0, n) => {
                for _ in 0..n {
                    *next += 1;
                    let item = Arc::new(*next);
                    tail.push(Arc::clone(&item));
                    model.push_back(item);
                }
            }
            (1, n) => {
                tail.drop_front(n);
                model.drain(..n.min(model.len()));
            }
            (3, n) => {
                let batch: Vec<Arc<u32>> = (0..n)
                    .map(|_| {
                        *next += 1;
                        Arc::new(*next)
                    })
                    .collect();
                tail.extend(batch.iter().cloned());
                model.extend(batch);
            }
            (_, n) => {
                *next += 1;
                let item = Arc::new(*next);
                let i = n % model.len().max(1);
                assert_eq!(tail.set(i, Arc::clone(&item)), i < model.len());
                if let Some(slot) = model.get_mut(i) {
                    *slot = item;
                }
            }
        }
    }

    /// The tail holds exactly the model's elements — the same
    /// allocations, in order — however it is read.
    fn same(tail: &Tail, model: &Model) -> Result<(), TestCaseError> {
        prop_assert_eq!(tail.len(), model.len());
        prop_assert_eq!(tail.is_empty(), model.is_empty());
        prop_assert!(tail.iter().zip(model).all(|(a, b)| Arc::ptr_eq(a, b)));
        prop_assert_eq!(tail.iter().count(), model.len());
        for (i, item) in model.iter().enumerate() {
            prop_assert!(tail.get(i).is_some_and(|got| Arc::ptr_eq(got, item)));
        }
        prop_assert!(tail.get(model.len()).is_none());
        prop_assert_eq!(tail.last().map(|x| **x), model.back().map(|x| **x));
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random append / evict / replace sequences against a
        /// `VecDeque<Arc<_>>` model, with a clone taken after every step
        /// and checked, unchanged, after every later one.
        #[test]
        fn chunked_tail_is_a_deque_whose_clones_never_change(
            ops in prop::collection::vec((0..4u8, 0..48usize), 1..40),
        ) {
            let mut tail = Chunked::new();
            let mut model = VecDeque::new();
            let mut next = 0;
            let mut held: Vec<(Tail, Model)> = Vec::new();
            for op in ops {
                apply(&mut tail, &mut model, op, &mut next);
                same(&tail, &model)?;
                held.push((tail.clone(), model.clone()));
                for (snapshot, then) in &held {
                    same(snapshot, then)?;
                }
            }
            let rebuilt: Tail = model.iter().cloned().collect();
            prop_assert_eq!(&rebuilt, &tail);
        }
    }

    #[test]
    fn an_edit_copies_what_it_touches() {
        let mut tail: Chunked<u32> = (0..10 * CHUNK as u32).collect();
        let held = tail.clone();
        tail.set(3 * CHUNK + 1, 7);
        // The index and the one chunk were copied; every other chunk is
        // still the held one's.
        let shared = |a: &Chunked<u32>, b: &Chunked<u32>| {
            let held = |x: &&Chunk<u32>| b.chunks.iter().any(|y| Arc::ptr_eq(x, y));
            a.chunks.iter().filter(held).count()
        };
        assert!(!Chunked::ptr_eq(&tail, &held));
        assert_eq!(shared(&tail, &held), 9);
        tail.push(1);
        tail.drop_front(CHUNK + 3);
        assert_eq!(shared(&tail, &held), 8, "one chunk evicted whole");
        assert_eq!(tail.len(), 10 * CHUNK + 1 - CHUNK - 3);
        assert_eq!(held.len(), 10 * CHUNK);
        assert_eq!(held.get(3 * CHUNK + 1), Some(&(3 * CHUNK as u32 + 1)));
    }
}
