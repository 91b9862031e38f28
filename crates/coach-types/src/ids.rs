//! Strongly-typed identifiers for VMs, servers, clusters, and subscriptions.
//!
//! Newtypes keep the scheduler honest: a [`VmId`] cannot be confused with a
//! [`ServerId`] even though both wrap `u64`.

use std::fmt;

macro_rules! id_type {
    ($(#[$doc:meta])* $name:ident, $prefix:literal) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
        pub struct $name(u64);

        impl $name {
            /// Wrap a raw numeric id.
            pub const fn new(raw: u64) -> Self {
                Self(raw)
            }

            /// The raw numeric id.
            pub const fn raw(self) -> u64 {
                self.0
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl From<u64> for $name {
            fn from(raw: u64) -> Self {
                Self(raw)
            }
        }

        impl From<$name> for u64 {
            fn from(id: $name) -> u64 {
                id.0
            }
        }
    };
}

id_type!(
    /// Identifier of a single VM instance (one allocation/deallocation pair).
    VmId,
    "vm-"
);
id_type!(
    /// Identifier of a physical server.
    ServerId,
    "srv-"
);
id_type!(
    /// Identifier of a cluster (a homogeneous pool of servers).
    ClusterId,
    "cluster-"
);
id_type!(
    /// Identifier of a customer subscription. VMs from the same subscription
    /// tend to behave alike (§2.3, Fig 12) — the prediction model groups by it.
    SubscriptionId,
    "sub-"
);

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn roundtrip_and_display() {
        let vm = VmId::new(42);
        assert_eq!(vm.raw(), 42);
        assert_eq!(vm.to_string(), "vm-42");
        assert_eq!(u64::from(vm), 42);
        assert_eq!(VmId::from(42u64), vm);
    }

    #[test]
    fn ids_are_hashable_and_ordered() {
        let mut set = HashSet::new();
        set.insert(ServerId::new(1));
        set.insert(ServerId::new(1));
        set.insert(ServerId::new(2));
        assert_eq!(set.len(), 2);
        assert!(ServerId::new(1) < ServerId::new(2));
    }

    #[test]
    fn distinct_prefixes() {
        assert_eq!(ClusterId::new(3).to_string(), "cluster-3");
        assert_eq!(SubscriptionId::new(7).to_string(), "sub-7");
        assert_eq!(ServerId::new(9).to_string(), "srv-9");
    }
}
