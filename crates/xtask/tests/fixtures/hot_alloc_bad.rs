// A `// hot` function that allocates five ways — growth ctor, push on
// that local, format!, a collection built from an array — plus a direct
// callee that boxes. All flagged.

// hot
pub fn deliver_fast(input: &[u32]) -> u32 {
    let mut scratch = Vec::new();
    for v in input {
        scratch.push(*v + 1);
    }
    let label = format!("{}", scratch.len());
    let seen = std::collections::BTreeSet::from([label.len()]);
    helper(seen.len() as u32)
}

fn helper(n: u32) -> u32 {
    let boxed = Box::new(n);
    *boxed
}
