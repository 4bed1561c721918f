// A `// hot` function that bumps a shared refcount to iterate a table
// it could re-borrow, plus a direct callee that does the same with an
// `Rc`. Both flagged: every holder of the pointer writes that count.

use std::rc::Rc;
use std::sync::Arc;

pub struct Engine {
    table: Arc<Vec<u32>>,
    names: Rc<Vec<u32>>,
    total: u32,
}

impl Engine {
    // hot
    pub fn propagate(&mut self) {
        let table = Arc::clone(&self.table);
        for v in table.iter() {
            self.total += *v;
        }
        self.total += self.count_names();
    }

    fn count_names(&self) -> u32 {
        let names = Rc::clone(&self.names);
        names.len() as u32
    }
}
