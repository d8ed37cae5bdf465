//! The TPC-H-style queries as runtime plans.
//!
//! Each query is a [`Plan`] over the six named relation inputs, installable from data
//! through a `kpg_plan::Manager` — beside any other query, over the wire, on the path
//! `kpg_server` runs — and incrementally maintained as `lineitem` streams. The set covers
//! the main shapes in the benchmark — scan/filter/aggregate (Q1, Q6), join + aggregate
//! (Q3, Q5, Q10, Q14), existence tests (Q4), and multi-way grouping (Q12) — which is what
//! the batching and scaling experiments of §6.1 exercise; the remaining TPC-H queries
//! follow the same patterns.
//!
//! An answer row is the group key followed by one `Int` aggregate, exactly what
//! [`crate::baseline::evaluate`] recomputes. Revenue is carried in exact hundredths of
//! a cent — `price * (100 − discount)`, never divided per row — so a maintained sum and
//! a recomputed one cannot drift apart by rounding.

use kpg_plan::{Command, Expr, Plan, ReduceKind};

use crate::data::{Database, Lineitem};

// The inputs: each relation under its own name, as rows of its type's `row()`.
const LINEITEM: &str = "lineitem";
const ORDERS: &str = "orders";
const CUSTOMER: &str = "customer";
const SUPPLIER: &str = "supplier";
const PART: &str = "part";
const NATION: &str = "nation";

/// The identifiers of the queries this module implements.
pub const IMPLEMENTED: &[u32] = &[1, 3, 4, 5, 6, 10, 12, 14];

// Column positions, in `row()` order. Every relation's key is its column 0.
const KEY: usize = 0;
const L_ORDER: usize = 0;
const L_PART: usize = 1;
const L_SUPPLIER: usize = 2;
const L_QUANTITY: usize = 3;
const L_PRICE: usize = 4;
const L_DISCOUNT: usize = 5;
const L_RETURN_FLAG: usize = 7;
const L_LINE_STATUS: usize = 8;
const L_SHIP_DATE: usize = 9;
const L_COMMIT_DATE: usize = 10;
const L_RECEIPT_DATE: usize = 11;
const L_SHIP_MODE: usize = 12;
const O_CUSTOMER: usize = 1;
const O_DATE: usize = 2;
const O_PRIORITY: usize = 3;
const C_NATION: usize = 1;
const C_SEGMENT: usize = 2;
const P_TYPE: usize = 1;

fn col(index: usize) -> Expr {
    Expr::col(index)
}

fn lit(value: i64) -> Expr {
    Expr::lit(value)
}

/// `low <= column < high`.
fn within(column: usize, low: i64, high: i64) -> Expr {
    col(column).ge(lit(low)).and(col(column).lt(lit(high)))
}

/// A lineitem's discounted price, in hundredths of a cent.
fn revenue() -> Expr {
    col(L_PRICE).mul(lit(100).sub(col(L_DISCOUNT)))
}

/// The commands that create all six inputs (each keyed by its first column, the key
/// every query joins it on) and load every relation of `db` but `lineitem`, which the
/// experiments stream.
pub fn load_reference(db: &Database) -> Vec<Command> {
    let create = [LINEITEM, ORDERS, CUSTOMER, SUPPLIER, PART, NATION]
        .into_iter()
        .map(|name| Command::CreateInput {
            name: name.to_string(),
            key_arity: Some(1),
        });
    let insert = |name: &'static str, row| Command::Update {
        name: name.to_string(),
        row,
        diff: 1,
    };
    create
        .chain(db.orders.iter().map(|o| insert(ORDERS, o.row())))
        .chain(db.customers.iter().map(|c| insert(CUSTOMER, c.row())))
        .chain(db.suppliers.iter().map(|s| insert(SUPPLIER, s.row())))
        .chain(db.parts.iter().map(|p| insert(PART, p.row())))
        .chain(db.nations.iter().map(|n| insert(NATION, n.row())))
        .collect()
}

/// One change to the lineitem stream.
pub fn lineitem_update(lineitem: &Lineitem, diff: isize) -> Command {
    Command::Update {
        name: LINEITEM.to_string(),
        row: lineitem.row(),
        diff,
    }
}

/// The plan of the query with the given TPC-H number. Panics if it is not [`IMPLEMENTED`].
pub fn query(number: u32) -> Plan {
    match number {
        1 => q1(),
        3 => q3(),
        4 => q4(),
        5 => q5(),
        6 => q6(),
        10 => q10(),
        12 => q12(),
        14 => q14(),
        other => panic!("query {other} is not implemented"),
    }
}

/// Q1: pricing summary report — quantity plus discounted price summed per
/// `[return_flag, line_status]`, for lineitems shipped before a cutoff.
fn q1() -> Plan {
    Plan::source(LINEITEM)
        .filter(col(L_SHIP_DATE).le(lit(2_400)))
        .map(vec![
            col(L_RETURN_FLAG),
            col(L_LINE_STATUS),
            col(L_QUANTITY).add(revenue()),
        ])
        .reduce(2, ReduceKind::Sum(2))
}

/// Q3: unshipped orders — revenue per `[order]` for one market segment.
fn q3() -> Plan {
    let customers = Plan::source(CUSTOMER)
        .filter(col(C_SEGMENT).eq(lit(1)))
        .map(vec![col(KEY)]);
    let relevant_orders = Plan::source(ORDERS)
        .filter(col(O_DATE).lt(lit(1_500)))
        .map(vec![col(O_CUSTOMER), col(KEY)])
        .join(customers, vec![(0, 0)]) // [customer, order]
        .map(vec![col(1)]);
    Plan::source(LINEITEM)
        .filter(col(L_SHIP_DATE).gt(lit(1_500)))
        .map(vec![col(L_ORDER), revenue()])
        .join(relevant_orders, vec![(0, 0)]) // [order, revenue]
        .reduce(1, ReduceKind::Sum(1))
}

/// Q4: order priority checking — orders with at least one late lineitem, counted per
/// `[priority]`.
fn q4() -> Plan {
    let late_orders = Plan::source(LINEITEM)
        .filter(col(L_COMMIT_DATE).lt(col(L_RECEIPT_DATE)))
        .map(vec![col(L_ORDER)])
        .distinct();
    Plan::source(ORDERS)
        .filter(within(O_DATE, 1_000, 1_100))
        .map(vec![col(KEY), col(O_PRIORITY)])
        .join(late_orders, vec![(0, 0)]) // [order, priority]
        .map(vec![col(1)])
        .reduce(1, ReduceKind::Count)
}

/// Q5: local supplier volume — revenue per `[region]` where the customer's and the
/// supplier's nations share it.
fn q5() -> Plan {
    let order_nation = Plan::source(ORDERS)
        .map(vec![col(O_CUSTOMER), col(KEY)])
        .join(
            Plan::source(CUSTOMER).map(vec![col(KEY), col(C_NATION)]),
            vec![(0, 0)],
        ) // [customer, order, nation]
        .map(vec![col(1), col(2)]);
    Plan::source(LINEITEM)
        .map(vec![col(L_ORDER), col(L_SUPPLIER), revenue()])
        .join(order_nation, vec![(0, 0)]) // [order, supplier, revenue, customer nation]
        .map(vec![col(1), col(3), col(2)])
        .join(Plan::source(SUPPLIER), vec![(0, 0)]) // [supplier, c-nation, revenue, s-nation]
        .map(vec![col(1), col(3), col(2)])
        .join(Plan::source(NATION), vec![(0, 0)]) // [c-nation, s-nation, revenue, c-region]
        .map(vec![col(1), col(3), col(2)])
        .join(Plan::source(NATION), vec![(0, 0)]) // [s-nation, c-region, revenue, s-region]
        .filter(col(1).eq(col(3)))
        .map(vec![col(1), col(2)])
        .reduce(1, ReduceKind::Sum(1))
}

/// Q6: forecasting revenue change — one global sum (`price * discount`) over a pure
/// filter of lineitem; the answer's key is empty.
fn q6() -> Plan {
    Plan::source(LINEITEM)
        .filter(
            within(L_SHIP_DATE, 500, 865)
                .and(within(L_DISCOUNT, 5, 8))
                .and(col(L_QUANTITY).lt(lit(24))),
        )
        .map(vec![col(L_PRICE).mul(col(L_DISCOUNT))])
        .reduce(0, ReduceKind::Sum(0))
}

/// Q10: returned item reporting — revenue lost per `[customer]` to returned items.
fn q10() -> Plan {
    Plan::source(LINEITEM)
        .filter(col(L_RETURN_FLAG).eq(lit(2)))
        .map(vec![col(L_ORDER), revenue()])
        .join(
            Plan::source(ORDERS).map(vec![col(KEY), col(O_CUSTOMER)]),
            vec![(0, 0)],
        ) // [order, revenue, customer]
        .map(vec![col(2), col(1)])
        .reduce(1, ReduceKind::Sum(1))
}

/// Q12: shipping modes and order priority — late lineitems counted per
/// `[ship_mode, urgent]`, `urgent` being whether the order's priority is at most 1.
fn q12() -> Plan {
    let mode = |mode: i64| col(L_SHIP_MODE).eq(lit(mode));
    Plan::source(LINEITEM)
        .filter(
            mode(3)
                .or(mode(5))
                .and(col(L_COMMIT_DATE).lt(col(L_RECEIPT_DATE))),
        )
        .map(vec![col(L_ORDER), col(L_SHIP_MODE)])
        .join(
            Plan::source(ORDERS).map(vec![col(KEY), col(O_PRIORITY)]),
            vec![(0, 0)],
        ) // [order, mode, priority]
        .map(vec![col(1), col(2).le(lit(1))])
        .reduce(2, ReduceKind::Count)
}

/// Q14: promotion effect — revenue of one month's shipments per `[promotional]` flag of
/// the part shipped: the two sums whose ratio is the promotion's share (`Expr` has no
/// division; the reader of the answer takes it).
fn q14() -> Plan {
    let parts = Plan::source(PART).map(vec![col(KEY), col(P_TYPE).lt(lit(25))]);
    Plan::source(LINEITEM)
        .filter(within(L_SHIP_DATE, 700, 730))
        .map(vec![col(L_PART), revenue()])
        .join(parts, vec![(0, 0)]) // [part, revenue, promotional]
        .map(vec![col(2), col(1)])
        .reduce(1, ReduceKind::Sum(1))
}
