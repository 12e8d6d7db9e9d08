//! Dynamically typed message payloads.
//!
//! Components across crates exchange messages without a shared closed enum,
//! so payloads are reference-counted `dyn Any` values. Cloning a [`Payload`]
//! is a pointer bump, which makes the network's *duplicate delivery* fault
//! (§3.2 of the paper) free to model. Receivers downcast to the concrete
//! message type they understand.
//!
//! A receiver may also *take* from a body it alone owns:
//! [`Payload::get_mut`] hands out `&mut T` only when no other handle to
//! the allocation exists. Anyone who could still read the body — a
//! network duplicate not yet delivered, an RPC client's retry buffer, a
//! cache entry, or every other sender of an interned zero-sized marker —
//! holds such a handle, so a shared body never yields and the receiver
//! falls back to a copy in exactly the cases where one is needed. Taking
//! is therefore unobservable: nothing that reads the body afterwards
//! exists.

use std::any::{Any, TypeId};
use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

/// One interned-payload cache slot: a message type and its shared
/// allocation.
type InternSlot = (TypeId, Rc<Inner<dyn Any>>);

thread_local! {
    /// Interned payloads for zero-sized marker types (`Ping`, `Commit`,
    /// …), which dominate protocol traffic. A ZST carries no data, so
    /// every `Payload::new(Marker)` can share one `Rc` allocation per
    /// type instead of paying a heap allocation per message. Keyed by
    /// `TypeId` with a linear scan — message vocabularies are tiny.
    static ZST_INTERN: RefCell<Vec<InternSlot>> = const { RefCell::new(Vec::new()) };
}

fn intern_zst<T: Any>(value: T) -> Rc<Inner<dyn Any>> {
    ZST_INTERN.with(|cache| {
        let mut cache = cache.borrow_mut();
        let id = TypeId::of::<T>();
        if let Some((_, rc)) = cache.iter().find(|(t, _)| *t == id) {
            return Rc::clone(rc);
        }
        let rc: Rc<Inner<dyn Any>> = Rc::new(Inner {
            tag: std::any::type_name::<T>(),
            value,
        });
        cache.push((id, Rc::clone(&rc)));
        rc
    })
}

/// The shared allocation behind a [`Payload`]: the value plus its type
/// tag. Keeping the tag inside the allocation (rather than alongside
/// the pointer) makes `Payload` a single thin-struct move — it rides
/// every queued event, so its size is kernel-hot-path-relevant.
struct Inner<T: ?Sized> {
    /// Human-readable type tag, kept for traces and diagnostics.
    tag: &'static str,
    value: T,
}

/// An opaque, cheaply clonable message payload.
#[derive(Clone)]
pub struct Payload {
    inner: Rc<Inner<dyn Any>>,
}

impl Payload {
    /// Wrap a concrete message value.
    ///
    /// Zero-sized `T` without drop glue is interned: all payloads of
    /// that type share one allocation. Observable behaviour (downcasts,
    /// tags) is identical either way, since a ZST has no state.
    #[inline]
    pub fn new<T: Any>(value: T) -> Self {
        let inner = if size_of::<T>() == 0 && !std::mem::needs_drop::<T>() {
            intern_zst(value)
        } else {
            Rc::new(Inner {
                tag: std::any::type_name::<T>(),
                value,
            })
        };
        Payload { inner }
    }

    /// Borrow the payload as `T`, if that is its concrete type.
    #[inline]
    pub fn downcast_ref<T: Any>(&self) -> Option<&T> {
        self.inner.value.downcast_ref::<T>()
    }

    /// Borrow the payload mutably as `T`, if that is its concrete type
    /// and this handle is the only one to the allocation (see the module
    /// doc). `None` while any clone is alive, for an interned zero-sized
    /// marker, and for any other type.
    #[inline]
    pub fn get_mut<T: Any>(&mut self) -> Option<&mut T> {
        Rc::get_mut(&mut self.inner)?.value.downcast_mut::<T>()
    }

    /// Borrow the payload as `T`, panicking with a useful message otherwise.
    ///
    /// Use at points where receiving any other type is a programming error.
    #[inline]
    pub fn expect<T: Any>(&self) -> &T {
        match self.inner.value.downcast_ref::<T>() {
            Some(v) => v,
            None => panic!(
                "payload type mismatch: expected {}, got {}",
                std::any::type_name::<T>(),
                self.inner.tag
            ),
        }
    }

    /// True if the payload's concrete type is `T`.
    #[inline]
    pub fn is<T: Any>(&self) -> bool {
        self.inner.value.is::<T>()
    }

    /// The concrete type name this payload was constructed with.
    #[inline]
    pub fn tag(&self) -> &'static str {
        self.inner.tag
    }
}

impl fmt::Debug for Payload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Payload<{}>", self.inner.tag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq)]
    struct Ping(u32);
    #[derive(Debug)]
    struct Pong;

    #[test]
    fn downcast_roundtrip() {
        let p = Payload::new(Ping(7));
        assert_eq!(p.downcast_ref::<Ping>(), Some(&Ping(7)));
        assert!(p.downcast_ref::<Pong>().is_none());
        assert!(p.is::<Ping>());
        assert!(!p.is::<Pong>());
    }

    #[test]
    fn clone_shares_value() {
        let p = Payload::new(Ping(9));
        let q = p.clone();
        assert_eq!(q.expect::<Ping>().0, 9);
        assert_eq!(p.expect::<Ping>().0, 9);
    }

    #[test]
    #[should_panic(expected = "payload type mismatch")]
    fn expect_panics_on_wrong_type() {
        let p = Payload::new(Ping(1));
        let _ = p.expect::<Pong>();
    }

    #[test]
    fn tag_names_type() {
        let p = Payload::new(Ping(1));
        assert!(p.tag().contains("Ping"));
        assert!(format!("{p:?}").contains("Ping"));
    }

    #[test]
    fn get_mut_yields_only_to_the_sole_owner() {
        let mut p = Payload::new(Ping(3));
        p.get_mut::<Ping>().expect("sole owner").0 = 4;
        assert_eq!(p.expect::<Ping>().0, 4);
        let q = p.clone();
        assert!(p.get_mut::<Ping>().is_none(), "a clone is alive");
        drop(q);
        assert_eq!(p.get_mut::<Ping>(), Some(&mut Ping(4)), "the clone is gone");
        assert!(p.get_mut::<Pong>().is_none(), "wrong type");
        // An interned marker is shared by the cache itself.
        let mut z = Payload::new(Pong);
        assert!(z.get_mut::<Pong>().is_none(), "interned ZST");
    }

    #[test]
    fn zst_payloads_share_one_allocation_and_still_downcast() {
        let a = Payload::new(Pong);
        let b = Payload::new(Pong);
        assert!(Rc::ptr_eq(&a.inner, &b.inner), "ZST payloads not interned");
        assert!(a.is::<Pong>());
        assert!(!a.is::<Ping>());
        assert!(a.tag().contains("Pong"));
        // Distinct ZST types intern separately.
        struct Other;
        let c = Payload::new(Other);
        assert!(c.is::<Other>());
        assert!(!Rc::ptr_eq(&a.inner, &c.inner));
    }
}
