//! Counter blocks: a layer's `stats` list declared once, as a struct
//! ([`counters!`](crate::counters!)), so each position is stated once.

/// Declares `stats` blocks: each a `#[derive(Clone, Copy, Debug, Default,
/// PartialEq, Eq)]` struct of named `u64` fields, with `to_value()` (the
/// list in field order, one allocation; a full-width `u64` survives its
/// `i64`), the decoder `from_value`, `FIELDS` and `merge`.
///
/// ```
/// paramecium_obj::counters! {
///     pub struct Seen { pub checked: u64, pub accepted: u64 }
/// }
/// let s = Seen { checked: 2, accepted: 1 };
/// assert_eq!(Seen::from_value(&s.to_value()).unwrap(), s);
/// ```
#[macro_export]
macro_rules! counters {
    ($(
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $( $(#[$fmeta:meta])* $fvis:vis $field:ident : u64 ),* $(,)?
        }
    )+) => {$(
        $(#[$meta])*
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
        $vis struct $name {
            $( $(#[$fmeta])* $fvis $field: u64, )*
        }

        impl $name {
            /// Field names, in `stats` list order.
            pub const FIELDS: &'static [&'static str] = &[$(stringify!($field)),*];

            /// The `stats` list: `Value::Int(field as i64)` in field order.
            pub fn to_value(self) -> $crate::Value {
                $crate::Value::List(vec![$($crate::Value::Int(self.$field as i64)),*])
            }

            /// Decodes a list [`Self::to_value`] built: a list of another
            /// length, or an entry that is not an `Int`, is an error.
            pub fn from_value(v: &$crate::Value) -> $crate::ObjResult<Self> {
                match v.as_list()? {
                    [$($field),*] => Ok(Self { $($field: $field.as_int()? as u64),* }),
                    l => Err($crate::ObjError::failed(format!(
                        "`{}` has {} counters, got {}",
                        stringify!($name), Self::FIELDS.len(), l.len()
                    ))),
                }
            }

            /// Adds `other` into `self`, field by field (wrapping).
            pub fn merge(&mut self, other: &Self) {
                $( self.$field = self.$field.wrapping_add(other.$field); )*
            }
        }
    )+};
}

#[cfg(test)]
mod tests {
    crate::counters! {
        struct Pair {
            a: u64,
            b: u64,
        }
    }

    #[test]
    fn a_block_round_trips_and_merges() {
        let mut p = Pair { a: 1, b: u64::MAX };
        assert_eq!(Pair::FIELDS, ["a", "b"]);
        assert_eq!(Pair::from_value(&p.to_value()).unwrap(), p);
        p.merge(&Pair { a: 2, b: 2 });
        assert_eq!(p, Pair { a: 3, b: 1 });
    }
}
