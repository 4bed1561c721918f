//! Seeded-bad fixture: hash iteration feeding ordered output.
use std::collections::{HashMap, HashSet};

pub fn ordered_dump(table: &HashMap<u32, String>) -> Vec<String> {
    let mut out = Vec::new();
    for (_k, v) in table.iter() {
        out.push(v.clone());
    }
    out
}

pub fn keys_leak(routes: HashMap<u32, u32>) -> Vec<u32> {
    routes.keys().copied().collect()
}

pub fn set_for_loop(seen: &HashSet<u32>) -> u32 {
    let mut sum = 0;
    for v in seen {
        sum += v;
    }
    sum
}

pub fn seeded_index_leak(index: &SeededMap<u32, u32>) -> Vec<u32> {
    index.values().copied().collect()
}
