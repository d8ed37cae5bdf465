//! TPC-H-like schema and seeded data generator.
//!
//! Rows carry the columns the queries need, with integer keys and fixed-point prices
//! (cents as `i64`). The generator preserves the schema's key relationships: every
//! lineitem references an order, every order a customer, every customer a nation, and so
//! on, so the join structure of the queries is exercised faithfully.
//!
//! Every row type has a `row()` encoder: its fields, in declaration order, as the
//! [`Row`] the plans of [`crate::plans`] read — keys, flags and dates as `UInt`,
//! quantities and money as `Int`.

use kpg_plan::{Row, Value};
use kpg_timestamp::rng::SmallRng;

/// A `UInt` field.
fn uint(value: impl Into<u64>) -> Value {
    Value::UInt(value.into())
}

/// A lineitem row (the fact table).
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Lineitem {
    /// The order this lineitem belongs to.
    pub order: u32,
    /// The part shipped.
    pub part: u32,
    /// The supplier shipping it.
    pub supplier: u32,
    /// Quantity shipped.
    pub quantity: i64,
    /// Extended price in cents.
    pub extended_price: i64,
    /// Discount in basis points (0..=1000).
    pub discount: i64,
    /// Tax in basis points.
    pub tax: i64,
    /// Return flag (0..3).
    pub return_flag: u8,
    /// Line status (0..2).
    pub line_status: u8,
    /// Ship date as days since epoch.
    pub ship_date: u32,
    /// Commit date as days since epoch.
    pub commit_date: u32,
    /// Receipt date as days since epoch.
    pub receipt_date: u32,
    /// Ship mode (0..7).
    pub ship_mode: u8,
}

impl Lineitem {
    /// The lineitem as a plan row (13 columns, in field order).
    pub fn row(&self) -> Row {
        Row::from(vec![
            uint(self.order),
            uint(self.part),
            uint(self.supplier),
            Value::Int(self.quantity),
            Value::Int(self.extended_price),
            Value::Int(self.discount),
            Value::Int(self.tax),
            uint(self.return_flag),
            uint(self.line_status),
            uint(self.ship_date),
            uint(self.commit_date),
            uint(self.receipt_date),
            uint(self.ship_mode),
        ])
    }
}

/// An orders row.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Order {
    /// The order key.
    pub key: u32,
    /// The customer placing the order.
    pub customer: u32,
    /// Order date as days since epoch.
    pub order_date: u32,
    /// Order priority (0..5).
    pub priority: u8,
    /// Total price in cents.
    pub total_price: i64,
}

impl Order {
    /// The order as a plan row: `[key, customer, order_date, priority, total_price]`.
    pub fn row(&self) -> Row {
        Row::from(vec![
            uint(self.key),
            uint(self.customer),
            uint(self.order_date),
            uint(self.priority),
            Value::Int(self.total_price),
        ])
    }
}

/// A customer row.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Customer {
    /// The customer key.
    pub key: u32,
    /// The customer's nation.
    pub nation: u32,
    /// Market segment (0..5).
    pub segment: u8,
    /// Account balance in cents.
    pub balance: i64,
}

impl Customer {
    /// The customer as a plan row: `[key, nation, segment, balance]`.
    pub fn row(&self) -> Row {
        Row::from(vec![
            uint(self.key),
            uint(self.nation),
            uint(self.segment),
            Value::Int(self.balance),
        ])
    }
}

/// A supplier row.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Supplier {
    /// The supplier key.
    pub key: u32,
    /// The supplier's nation.
    pub nation: u32,
}

impl Supplier {
    /// The supplier as a plan row: `[key, nation]`.
    pub fn row(&self) -> Row {
        Row::from(vec![uint(self.key), uint(self.nation)])
    }
}

/// A part row.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Part {
    /// The part key.
    pub key: u32,
    /// Part type (0..150).
    pub part_type: u16,
    /// Part size.
    pub size: u8,
}

impl Part {
    /// The part as a plan row: `[key, part_type, size]`.
    pub fn row(&self) -> Row {
        Row::from(vec![uint(self.key), uint(self.part_type), uint(self.size)])
    }
}

/// A nation row: TPC-H's fixed nation → region table.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Nation {
    /// The nation key.
    pub key: u32,
    /// The nation's region, [`region_of`] the key.
    pub region: u32,
}

impl Nation {
    /// The nation as a plan row: `[key, region]`.
    pub fn row(&self) -> Row {
        Row::from(vec![uint(self.key), uint(self.region)])
    }
}

/// The number of nations (as in TPC-H).
pub const NATIONS: u32 = 25;
/// The number of regions (as in TPC-H).
pub const REGIONS: u32 = 5;

/// Maps a nation to its region, mirroring TPC-H's fixed nation/region table.
pub fn region_of(nation: u32) -> u32 {
    nation % REGIONS
}

/// A generated database at some scale.
pub struct Database {
    /// Lineitem rows.
    pub lineitems: Vec<Lineitem>,
    /// Order rows.
    pub orders: Vec<Order>,
    /// Customer rows.
    pub customers: Vec<Customer>,
    /// Supplier rows.
    pub suppliers: Vec<Supplier>,
    /// Part rows.
    pub parts: Vec<Part>,
    /// Nation rows: all [`NATIONS`] of them, at every scale.
    pub nations: Vec<Nation>,
}

/// Generates a database where `scale = 1.0` corresponds to roughly 6,000 lineitems
/// (1/1000 of TPC-H scale factor 1), keeping laptop runs fast while preserving the row
/// count ratios between relations.
pub fn generate(scale: f64, seed: u64) -> Database {
    let mut rng = SmallRng::seed_from_u64(seed);
    let lineitem_count = (6_000.0 * scale) as usize;
    let order_count = (lineitem_count / 4).max(1);
    let customer_count = (order_count / 10).max(1);
    let supplier_count = (customer_count / 15).max(1);
    let part_count = (lineitem_count / 30).max(1);

    let customers = (0..customer_count as u32)
        .map(|key| Customer {
            key,
            nation: rng.gen_range(0..NATIONS),
            segment: rng.gen_range(0..5),
            balance: rng.gen_range(-100_000..1_000_000),
        })
        .collect::<Vec<_>>();
    let suppliers = (0..supplier_count as u32)
        .map(|key| Supplier {
            key,
            nation: rng.gen_range(0..NATIONS),
        })
        .collect::<Vec<_>>();
    let parts = (0..part_count as u32)
        .map(|key| Part {
            key,
            part_type: rng.gen_range(0..150),
            size: rng.gen_range(1..51),
        })
        .collect::<Vec<_>>();
    let orders = (0..order_count as u32)
        .map(|key| Order {
            key,
            customer: rng.gen_range(0..customer_count as u32),
            order_date: rng.gen_range(0..2557),
            priority: rng.gen_range(0..5),
            total_price: rng.gen_range(1_000..50_000_000),
        })
        .collect::<Vec<_>>();
    let lineitems = (0..lineitem_count)
        .map(|_| {
            let order = rng.gen_range(0..order_count as u32);
            let ship_date = rng.gen_range(0..2557);
            Lineitem {
                order,
                part: rng.gen_range(0..part_count as u32),
                supplier: rng.gen_range(0..supplier_count as u32),
                quantity: rng.gen_range(1..51),
                extended_price: rng.gen_range(1_000..10_000_000),
                discount: rng.gen_range(0..=100),
                tax: rng.gen_range(0..=80),
                return_flag: rng.gen_range(0..3),
                line_status: rng.gen_range(0..2),
                ship_date,
                commit_date: ship_date + rng.gen_range(0u32..60),
                receipt_date: ship_date + rng.gen_range(0u32..90),
                ship_mode: rng.gen_range(0..7),
            }
        })
        .collect::<Vec<_>>();

    Database {
        lineitems,
        orders,
        customers,
        suppliers,
        parts,
        nations: (0..NATIONS)
            .map(|key| Nation {
                key,
                region: region_of(key),
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_and_referentially_consistent() {
        let a = generate(0.5, 42);
        let b = generate(0.5, 42);
        assert_eq!(a.lineitems, b.lineitems);
        assert_eq!(a.lineitems.len(), 3_000);
        let order_count = a.orders.len() as u32;
        assert!(a.lineitems.iter().all(|l| l.order < order_count));
        let customer_count = a.customers.len() as u32;
        assert!(a.orders.iter().all(|o| o.customer < customer_count));
    }

    #[test]
    fn scale_controls_size() {
        assert!(generate(0.1, 1).lineitems.len() < generate(1.0, 1).lineitems.len());
    }
}
