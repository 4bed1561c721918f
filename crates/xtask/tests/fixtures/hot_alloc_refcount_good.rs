// The same hot path re-borrowing the shared table: the borrow checker
// sees `self.table` and `self.total` as disjoint fields, so no refcount
// is touched. A cold constructor may still clone the pointer.

use std::sync::Arc;

pub struct Engine {
    table: Arc<Vec<u32>>,
    total: u32,
}

impl Engine {
    // hot
    pub fn propagate(&mut self) {
        for v in self.table.iter() {
            self.total += *v;
        }
    }

    pub fn fork(&self) -> Engine {
        Engine {
            table: Arc::clone(&self.table),
            total: 0,
        }
    }
}
