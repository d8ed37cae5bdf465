//! The uniform row type runtime plans compute over.
//!
//! Closure-compiled queries pick whatever Rust types suit them; queries that *arrive at
//! runtime* cannot. Every plan-rendered collection therefore carries [`Row`]s — vectors
//! of a small dynamic [`Value`] — so one render pass, one arrangement type, and one
//! registry entry shape serve every query a server will ever be asked to install.

use kpg_sync::{Arc, OnceLock};
use std::fmt;

/// A single field of a [`Row`].
///
/// The ordering (derived, variant order then payload) drives the sorted batch layout of
/// plan arrangements, so it only needs to be total and deterministic, not semantic:
/// `Int(3)` and `UInt(3)` are distinct values that sort apart. Plans that compare fields
/// should produce them with a consistent variant.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Value {
    /// A signed 64-bit integer.
    Int(i64),
    /// An unsigned 64-bit integer.
    UInt(u64),
    /// An owned string.
    String(String),
}

/// A record in a plan-rendered collection: an immutable, cheaply clonable sequence of
/// dynamically typed fields.
///
/// Rows are the values every plan-rendered operator moves, every spine merge re-sorts,
/// and every join seek compares — so the representation optimizes exactly those:
///
/// * **Clone** bumps a reference count (shared `Arc<[Value]>` storage; field data is
///   never copied).
/// * **Compare** usually never touches the heap: an order-preserving 128-bit
///   [`prefix`](Row::cmp) of the first two fields is stored inline, and rows of at most
///   two numeric fields — every join key and most records of a typical graph workload —
///   are *fully determined* by it, so sorts and trace seeks resolve on one integer
///   comparison. Wider or string-bearing rows fall back to field comparison only on
///   prefix ties.
///
/// (An inline small-row variant was measured and rejected: 100-byte by-value rows cost
/// more in batch sorts and moves than the indirection saves.)
#[derive(Clone)]
pub struct Row {
    /// Order-preserving encoding of the leading fields; see [`prefix_of`].
    prefix: u128,
    /// True iff `prefix` determines the row exactly (≤ 2 numeric fields): prefix
    /// equality then implies row equality.
    exact: bool,
    values: Arc<[Value]>,
}

/// Encodes the leading fields of `values` as an order-preserving 128-bit integer:
/// comparing prefixes agrees with comparing rows wherever the prefixes differ, and
/// ties fall back to field comparison.
///
/// Each of the first two fields gets a 2-bit tag (absent < `Int` < `UInt` < `String`,
/// mirroring [`Value`]'s ordering) and a 62-bit monotone slot. A slot is *exact*
/// (encodes its field injectively) for integers within ±2^60 / below 2^61 and strings
/// of at most 7 bytes; out-of-window integers saturate and longer strings keep only a
/// 7-byte prefix plus their length capped at 8 (so a short string orders against its
/// extensions by length, but two longer strings never order by length — their order is
/// decided by bytes the slot cannot see), both of which stay monotone but can tie.
/// Field 1
/// is encoded only while field 0 is exact — otherwise a tie in field 0's slot could
/// let field 1 decide an order field 0 actually determines. The returned flag says
/// whether the prefix determines the whole row (every field encoded exactly and no
/// third field), in which case prefix equality is row equality.
fn prefix_of(values: &[Value]) -> (u128, bool) {
    const SLOT_MAX: u64 = (1 << 62) - 1;
    /// `(tag, slot, exact)` for one field.
    fn encode(value: &Value) -> (u8, u64, bool) {
        match value {
            Value::Int(signed) => {
                // Window |i| < 2^60 maps into [2^61, 2^62) order-preservingly (the
                // sign-flip trick re-centred on the slot); outside saturates.
                let flipped = (*signed as u64) ^ (1u64 << 63);
                const LO: u64 = (1 << 63) - (1 << 60);
                const HI: u64 = (1 << 63) + (1 << 60);
                if (LO..HI).contains(&flipped) {
                    (1, flipped - LO + 1, true)
                } else if flipped < LO {
                    (1, 0, false)
                } else {
                    (1, SLOT_MAX, false)
                }
            }
            Value::UInt(unsigned) => {
                if *unsigned < (1 << 61) {
                    (2, *unsigned, true)
                } else {
                    (2, SLOT_MAX, false)
                }
            }
            Value::String(string) => {
                // First 7 bytes, then the length capped at 8: byte-wise lexicographic
                // order, with short strings fully determined. The cap lets length
                // discriminate only where it is decisive — a ≤7-byte string against
                // anything sharing its head is ordered by length (a proper prefix
                // precedes its extensions) — while all longer strings tie on it and
                // fall back to field comparison, since their order is decided by
                // bytes the slot cannot see.
                let bytes = string.as_bytes();
                let mut head = [0u8; 8];
                let taken = bytes.len().min(7);
                head[1..1 + taken].copy_from_slice(&bytes[..taken]);
                let slot = (u64::from_be_bytes(head) << 6) | bytes.len().min(8) as u64;
                (3, slot, bytes.len() <= 7)
            }
        }
    }
    let (tag0, slot0, exact0) = match values.first() {
        None => (0, 0, true),
        Some(value) => encode(value),
    };
    // Only encode field 1 behind an exact field 0 (see above).
    let (tag1, slot1, exact1) = match values.get(1) {
        Some(value) if exact0 => encode(value),
        Some(_) => (0, 0, false),
        None => (0, 0, true),
    };
    let exact = values.len() <= 2 && exact0 && exact1;
    let prefix = ((tag0 as u128) << 126)
        | ((slot0 as u128) << 64)
        | ((tag1 as u128) << 62)
        | (slot1 as u128);
    (prefix, exact)
}

impl Row {
    /// The empty row (shared storage: no allocation per call).
    pub fn new() -> Row {
        static EMPTY: OnceLock<Arc<[Value]>> = OnceLock::new();
        let values = Arc::clone(EMPTY.get_or_init(|| Arc::from(Vec::new())));
        Row {
            prefix: 0,
            exact: true,
            values,
        }
    }

    /// The fields as a slice (also available through deref).
    pub fn fields(&self) -> &[Value] {
        &self.values
    }

    fn from_storage(values: Arc<[Value]>) -> Row {
        let (prefix, exact) = prefix_of(&values);
        Row {
            prefix,
            exact,
            values,
        }
    }
}

impl Default for Row {
    fn default() -> Self {
        Row::new()
    }
}

impl std::ops::Deref for Row {
    type Target = [Value];
    fn deref(&self) -> &[Value] {
        &self.values
    }
}

impl From<Vec<Value>> for Row {
    fn from(values: Vec<Value>) -> Self {
        if values.is_empty() {
            Row::new()
        } else {
            Row::from_storage(Arc::from(values))
        }
    }
}

impl FromIterator<Value> for Row {
    /// Collects directly into the shared storage. For `TrustedLen` iterators (slice
    /// iterators, their `map`/`cloned`/`chain` compositions — the render pass's row
    /// constructions) the standard library writes straight into one allocation; empty
    /// collects return the shared empty row without allocating.
    fn from_iter<I: IntoIterator<Item = Value>>(iter: I) -> Self {
        let mut iter = iter.into_iter().peekable();
        if iter.peek().is_none() {
            return Row::new();
        }
        Row::from_storage(iter.collect::<Arc<[Value]>>())
    }
}

// `#[inline]` on the three comparisons below: they are the inner loop of every batch
// sort and cursor seek, and the generic code calling them is
// instantiated in other codegen units (and other crates). Without the attribute whether
// they inline depends on how rustc happens to partition this crate, which any change to
// the set of batch instantiations reshuffles.
impl PartialEq for Row {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        if self.prefix != other.prefix {
            return false;
        }
        (self.exact && other.exact) || self.values == other.values
    }
}

impl Eq for Row {}

impl PartialOrd for Row {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Row {
    #[inline]
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        match self.prefix.cmp(&other.prefix) {
            std::cmp::Ordering::Equal => {
                if self.exact && other.exact {
                    std::cmp::Ordering::Equal
                } else {
                    self.values.as_ref().cmp(other.values.as_ref())
                }
            }
            decided => decided,
        }
    }
}

impl std::hash::Hash for Row {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.values.hash(state);
    }
}

impl fmt::Debug for Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.values.iter()).finish()
    }
}

impl Value {
    /// The value as a signed integer, for arithmetic. Panics on strings: expression
    /// evaluation is only defined over fields the plan author arranged to be numeric
    /// (plans are validated structurally at install, not type-checked — see
    /// [`crate::Plan::validate`]).
    pub fn as_i64(&self) -> i64 {
        match self {
            Value::Int(value) => *value,
            Value::UInt(value) => i64::try_from(*value).expect("UInt too large for arithmetic"),
            Value::String(value) => panic!("arithmetic on string value {value:?}"),
        }
    }

    /// The truthiness used by `Filter` and the boolean connectives: nonzero numbers and
    /// non-empty strings are true.
    pub fn truthy(&self) -> bool {
        match self {
            Value::Int(value) => *value != 0,
            Value::UInt(value) => *value != 0,
            Value::String(value) => !value.is_empty(),
        }
    }

    /// The canonical boolean encoding produced by comparisons: `UInt(1)` / `UInt(0)`.
    pub fn bool(value: bool) -> Value {
        Value::UInt(u64::from(value))
    }
}

impl From<i64> for Value {
    fn from(value: i64) -> Self {
        Value::Int(value)
    }
}

impl From<u64> for Value {
    fn from(value: u64) -> Self {
        Value::UInt(value)
    }
}

impl From<u32> for Value {
    fn from(value: u32) -> Self {
        Value::UInt(u64::from(value))
    }
}

impl From<&str> for Value {
    fn from(value: &str) -> Self {
        Value::String(value.to_string())
    }
}

impl From<String> for Value {
    fn from(value: String) -> Self {
        Value::String(value)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(value) => write!(f, "{value}"),
            Value::UInt(value) => write!(f, "{value}"),
            Value::String(value) => write!(f, "{value:?}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn truthiness_and_bool_encoding() {
        assert!(Value::Int(-1).truthy());
        assert!(!Value::Int(0).truthy());
        assert!(Value::UInt(2).truthy());
        assert!(!Value::String(String::new()).truthy());
        assert!(Value::from("x").truthy());
        assert_eq!(Value::bool(true), Value::UInt(1));
        assert!(!Value::bool(false).truthy());
    }

    /// The row prefix encoding must agree with plain field-by-field comparison on
    /// every pair — including the adversarial cases: string ties beyond the encoded
    /// bytes (a later field must not decide an order the string determines), embedded
    /// NULs vs padding, out-of-window integers, truncated lengths, and arity ties.
    #[test]
    fn row_ordering_matches_field_ordering() {
        let long_a = "a".repeat(70);
        let mut long_b = "a".repeat(70);
        long_b.push('b');
        let corpus: Vec<Vec<Value>> = vec![
            vec![],
            vec![Value::Int(i64::MIN)],
            vec![Value::Int(-(1 << 61))],
            vec![Value::Int(-5)],
            vec![Value::Int(0)],
            vec![Value::Int(5)],
            vec![Value::Int(1 << 61)],
            vec![Value::Int(i64::MAX)],
            vec![Value::UInt(0)],
            vec![Value::UInt(3)],
            vec![Value::UInt(1 << 61)],
            vec![Value::UInt(u64::MAX)],
            vec![Value::from("")],
            vec![Value::from("a")],
            vec![Value::from("ab")],
            vec![Value::from("abc")],
            vec![Value::from("abc\0")],
            vec![Value::from("abc\0x")],
            vec![Value::from("abcx")],
            vec![Value::from("abcdefg")],
            // Long strings sharing a 7-byte head: order is decided past the encoded
            // bytes, so the shorter string must not win on length alone ("abcdefgaa"
            // precedes "abcdefgz" despite being longer).
            vec![Value::from("abcdefgaa")],
            vec![Value::from("abcdefgz")],
            vec![Value::from("abcdefgh")],
            vec![Value::from("abcdefghX")],
            vec![Value::from("abcdefghY")],
            vec![Value::String(long_a)],
            vec![Value::String(long_b)],
            vec![Value::UInt(1), Value::UInt(3)],
            vec![Value::UInt(1), Value::UInt(5)],
            vec![Value::UInt(1), Value::UInt(1 << 62)],
            vec![Value::UInt(1), Value::UInt(u64::MAX)],
            vec![Value::UInt(1), Value::Int(-1)],
            vec![Value::from("abcdefghX"), Value::Int(7)],
            vec![Value::from("abcdefghY"), Value::Int(-7)],
            vec![Value::UInt(1)],
            vec![Value::UInt(1), Value::UInt(2)],
            vec![Value::UInt(1), Value::UInt(2), Value::UInt(3)],
            vec![Value::UInt(1), Value::UInt(2), Value::UInt(4)],
            vec![Value::UInt(u64::MAX), Value::UInt(1)],
            vec![Value::UInt(u64::MAX), Value::UInt(2)],
        ];
        let rows: Vec<Row> = corpus
            .iter()
            .map(|values| Row::from(values.clone()))
            .collect();
        for (left_values, left_row) in corpus.iter().zip(rows.iter()) {
            for (right_values, right_row) in corpus.iter().zip(rows.iter()) {
                assert_eq!(
                    left_row.cmp(right_row),
                    left_values.as_slice().cmp(right_values.as_slice()),
                    "prefix comparison diverges on {left_values:?} vs {right_values:?}"
                );
                assert_eq!(
                    left_row == right_row,
                    left_values == right_values,
                    "prefix equality diverges on {left_values:?} vs {right_values:?}"
                );
            }
        }
    }

    #[test]
    fn ordering_is_total_and_deterministic() {
        let mut values = vec![
            Value::from("b"),
            Value::UInt(0),
            Value::Int(7),
            Value::from("a"),
            Value::Int(-3),
        ];
        values.sort();
        assert_eq!(
            values,
            vec![
                Value::Int(-3),
                Value::Int(7),
                Value::UInt(0),
                Value::from("a"),
                Value::from("b"),
            ]
        );
    }
}
