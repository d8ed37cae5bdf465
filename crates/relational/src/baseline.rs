//! Full re-evaluation baseline: recompute each query from scratch over plain vectors.
//!
//! This is the comparator the paper's incremental-view-maintenance experiments need: a
//! system that, on every logical batch, re-evaluates the query over the full current
//! database (the behaviour DBToaster falls back to for queries it cannot incrementalise).
//! It doubles as the correctness oracle for the plans of [`crate::plans`], with which
//! it shares no code: plain loops over the typed rows.

use std::collections::BTreeMap;

use kpg_plan::{Row, Value};

use crate::data::{region_of, Database, Lineitem};

/// A lineitem's discounted price in hundredths of a cent (see [`crate::plans`]).
fn revenue(l: &Lineitem) -> i64 {
    l.extended_price * (100 - l.discount)
}

/// Recomputes the query with the given TPC-H number over the full database: one
/// `(row, 1)` per group that at least one lineitem (for Q4, order) contributes to — the
/// group key as `UInt` columns, then the aggregate as an `Int` — sorted by row, which is
/// the shape a `Query` of the same plan answers in.
pub fn evaluate(number: u32, db: &Database) -> Vec<(Row, isize)> {
    let mut groups: BTreeMap<Vec<u32>, i64> = BTreeMap::new();
    match number {
        1 => {
            for l in db.lineitems.iter().filter(|l| l.ship_date <= 2_400) {
                *groups
                    .entry(vec![l.return_flag.into(), l.line_status.into()])
                    .or_insert(0) += l.quantity + revenue(l);
            }
        }
        3 => {
            let customers: Vec<u32> = db
                .customers
                .iter()
                .filter(|c| c.segment == 1)
                .map(|c| c.key)
                .collect();
            let orders: Vec<u32> = db
                .orders
                .iter()
                .filter(|o| o.order_date < 1_500 && customers.contains(&o.customer))
                .map(|o| o.key)
                .collect();
            for l in db.lineitems.iter().filter(|l| l.ship_date > 1_500) {
                if orders.contains(&l.order) {
                    *groups.entry(vec![l.order]).or_insert(0) += revenue(l);
                }
            }
        }
        4 => {
            let late: std::collections::BTreeSet<u32> = db
                .lineitems
                .iter()
                .filter(|l| l.commit_date < l.receipt_date)
                .map(|l| l.order)
                .collect();
            for o in db
                .orders
                .iter()
                .filter(|o| o.order_date >= 1_000 && o.order_date < 1_100 && late.contains(&o.key))
            {
                *groups.entry(vec![o.priority.into()]).or_insert(0) += 1;
            }
        }
        5 => {
            let customer_nation: BTreeMap<u32, u32> =
                db.customers.iter().map(|c| (c.key, c.nation)).collect();
            let order_nation: BTreeMap<u32, u32> = db
                .orders
                .iter()
                .filter_map(|o| customer_nation.get(&o.customer).map(|n| (o.key, *n)))
                .collect();
            let supplier_nation: BTreeMap<u32, u32> =
                db.suppliers.iter().map(|s| (s.key, s.nation)).collect();
            for l in db.lineitems.iter() {
                if let (Some(cn), Some(sn)) =
                    (order_nation.get(&l.order), supplier_nation.get(&l.supplier))
                {
                    if region_of(*cn) == region_of(*sn) {
                        *groups.entry(vec![region_of(*cn)]).or_insert(0) += revenue(l);
                    }
                }
            }
        }
        6 => {
            for l in db.lineitems.iter().filter(|l| {
                l.ship_date >= 500
                    && l.ship_date < 865
                    && l.discount >= 5
                    && l.discount <= 7
                    && l.quantity < 24
            }) {
                *groups.entry(vec![]).or_insert(0) += l.extended_price * l.discount;
            }
        }
        10 => {
            let order_customer: BTreeMap<u32, u32> =
                db.orders.iter().map(|o| (o.key, o.customer)).collect();
            for l in db.lineitems.iter().filter(|l| l.return_flag == 2) {
                if let Some(customer) = order_customer.get(&l.order) {
                    *groups.entry(vec![*customer]).or_insert(0) += revenue(l);
                }
            }
        }
        12 => {
            let order_priority: BTreeMap<u32, u8> =
                db.orders.iter().map(|o| (o.key, o.priority)).collect();
            for l in db.lineitems.iter().filter(|l| {
                (l.ship_mode == 3 || l.ship_mode == 5) && l.commit_date < l.receipt_date
            }) {
                if let Some(priority) = order_priority.get(&l.order) {
                    *groups
                        .entry(vec![l.ship_mode.into(), u32::from(*priority <= 1)])
                        .or_insert(0) += 1;
                }
            }
        }
        14 => {
            let promo: BTreeMap<u32, bool> =
                db.parts.iter().map(|p| (p.key, p.part_type < 25)).collect();
            for l in db
                .lineitems
                .iter()
                .filter(|l| l.ship_date >= 700 && l.ship_date < 730)
            {
                if let Some(is_promo) = promo.get(&l.part) {
                    *groups.entry(vec![u32::from(*is_promo)]).or_insert(0) += revenue(l);
                }
            }
        }
        other => panic!("query {other} is not implemented"),
    }
    // Keys of one query have one arity, so the map's order is already row order.
    let row = |(key, aggregate): (Vec<u32>, i64)| -> (Row, isize) {
        let key = key.into_iter().map(Value::from);
        (key.chain([Value::Int(aggregate)]).collect(), 1)
    };
    groups.into_iter().map(row).collect()
}
