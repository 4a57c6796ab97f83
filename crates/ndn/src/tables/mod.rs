//! Forwarder tables: FIB, PIT, and Content Store.

pub mod cs;
pub mod fib;
pub mod pit;
