//! Shared job and platform names.
//!
//! Every record the detection chain keeps about a task — a counter
//! reading, a CPI sample, a suspect, an incident, the agent's task state
//! — carries its job's name and often its platform's. Those strings are
//! allocated once, when a job is submitted or a platform described, and
//! every record shares them. A [`Name`] is that shared string behind one
//! pointer: a record pays 8 bytes a name where a fat `Arc<str>` pays 16.

use serde::{Deserialize, Error, Serialize, Value};
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::sync::Arc;

/// An immutable, shared string, one pointer wide.
///
/// A clone bumps one reference count. `==` compares pointers before
/// bytes, so two copies of one name compare in one step; otherwise a
/// name compares, orders, hashes, displays and serializes exactly as its
/// `str` does.
///
/// ```
/// use cpi2_stats::Name;
///
/// let a = Name::from("websearch");
/// let b = a.clone();
/// assert_eq!(a, b);
/// assert_eq!(a, Name::from(String::from("websearch")));
/// assert!(a < Name::from("x"));
/// assert_eq!(&*a, "websearch");
/// assert_eq!(a.to_string(), "websearch");
/// ```
#[derive(Clone)]
pub struct Name(Arc<Box<str>>);

impl Deref for Name {
    type Target = str;

    fn deref(&self) -> &str {
        &self.0
    }
}

impl From<&str> for Name {
    fn from(s: &str) -> Name {
        Name(Arc::new(Box::from(s)))
    }
}

impl From<String> for Name {
    fn from(s: String) -> Name {
        Name(Arc::new(s.into_boxed_str()))
    }
}

impl PartialEq for Name {
    fn eq(&self, other: &Name) -> bool {
        Arc::ptr_eq(&self.0, &other.0) || **self == **other
    }
}

impl Eq for Name {}

impl PartialOrd for Name {
    fn partial_cmp(&self, other: &Name) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Name {
    fn cmp(&self, other: &Name) -> Ordering {
        if Arc::ptr_eq(&self.0, &other.0) {
            return Ordering::Equal;
        }
        (**self).cmp(&**other)
    }
}

impl Hash for Name {
    fn hash<H: Hasher>(&self, state: &mut H) {
        (**self).hash(state);
    }
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&**self, f)
    }
}

impl fmt::Debug for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

impl Serialize for Name {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl Deserialize for Name {
    fn from_value(v: &Value) -> Result<Self, Error> {
        v.as_str()
            .map(Name::from)
            .ok_or_else(|| Error::custom("expected string"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of<T: Hash + ?Sized>(x: &T) -> u64 {
        let mut h = DefaultHasher::new();
        x.hash(&mut h);
        h.finish()
    }

    /// Strings that share prefixes, differ in case, run past ASCII and
    /// need JSON escapes.
    fn text() -> impl Strategy<Value = String> {
        const CHARS: [char; 10] = ['a', 'b', 'B', '-', 'é', '≥', '"', '\\', '\n', '\u{1}'];
        prop::collection::vec(0..CHARS.len(), 0..6)
            .prop_map(|picks| picks.into_iter().map(|i| CHARS[i]).collect())
    }

    #[test]
    fn a_clone_shares_its_string() {
        let a = Name::from("westmere-2.6GHz");
        let b = a.clone();
        assert!(std::ptr::eq(&*a, &*b));
        let c = Name::from("westmere-2.6GHz");
        assert!(!std::ptr::eq(&*a, &*c));
        assert_eq!(a, c);
    }

    proptest! {
        #[test]
        fn a_name_agrees_with_its_str(x in text(), y in text()) {
            let (a, b) = (Name::from(x.as_str()), Name::from(y.clone()));
            prop_assert_eq!(a == b, x == y);
            prop_assert_eq!(a.clone() == a, true);
            prop_assert_eq!(a.cmp(&b), x.as_str().cmp(y.as_str()));
            prop_assert_eq!(a.partial_cmp(&b), x.as_str().partial_cmp(y.as_str()));
            prop_assert_eq!(a.cmp(&a.clone()), Ordering::Equal);
            prop_assert_eq!(hash_of(&a), hash_of(x.as_str()));
            prop_assert_eq!(a.to_string(), x.clone());
            prop_assert_eq!(format!("{a:>8}|{a:?}"), format!("{x:>8}|{x:?}"));
            let shared: Arc<str> = Arc::from(x.as_str());
            let json = serde_json::to_string(&a).unwrap();
            prop_assert_eq!(&json, &serde_json::to_string(&shared).unwrap());
            let back: Name = serde_json::from_str(&json).unwrap();
            prop_assert_eq!(&*back, x.as_str());
        }
    }
}
