//! `seqdl-perfbench calibrate`: a fixed reference workload that uses none of
//! the repository's code, timed next to every op so `run.py` can tell how
//! fast the host was at that moment.
//!
//! It computes the transitive closure of a fixed random digraph by semi-naive
//! iteration over std hash sets and renders every closure pair as text, the
//! same kinds of work (hashing, small allocations, formatting) as a
//! `seqdl run` of the reachability program.  Its output is one line,
//! `closure: N CHECKSUM`, which never changes.

use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;
use std::hash::BuildHasherDefault;

const NODES: u32 = 320;
const EDGES: usize = 1280;

/// Fixed hash keys, so every run does the same work in the same order.
type Fixed = BuildHasherDefault<DefaultHasher>;

/// xorshift64*: a fixed sequence, so the graph is the same on every run.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u32) -> u32 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        (self.0.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 33) as u32 % n
    }
}

fn closure(succ: &HashMap<u32, Vec<u32>, Fixed>) -> HashSet<(u32, u32), Fixed> {
    let mut all: HashSet<(u32, u32), Fixed> = HashSet::default();
    let mut delta: Vec<(u32, u32)> = Vec::new();
    for (&x, ys) in succ {
        for &y in ys {
            if all.insert((x, y)) {
                delta.push((x, y));
            }
        }
    }
    while !delta.is_empty() {
        let mut next = Vec::new();
        for (x, y) in delta {
            for &z in succ.get(&y).into_iter().flatten() {
                if all.insert((x, z)) {
                    next.push((x, z));
                }
            }
        }
        delta = next;
    }
    all
}

pub fn calibrate() -> String {
    let mut rng = Rng(0x9e37_79b9_7f4a_7c15);
    let mut succ: HashMap<u32, Vec<u32>, Fixed> = HashMap::default();
    for _ in 0..EDGES {
        let (x, y) = (rng.below(NODES), rng.below(NODES));
        succ.entry(x).or_default().push(y);
    }
    let mut rows: Vec<String> = closure(&succ)
        .into_iter()
        .map(|(x, y)| {
            let mut row = String::new();
            write!(row, "  T(n{x}·n{y})").expect("write to string");
            row
        })
        .collect();
    rows.sort_unstable();
    let checksum = rows.iter().fold(0u64, |h, row| {
        row.bytes()
            .fold(h, |h, b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3))
    });
    format!("closure: {} {checksum:016x}", rows.len())
}
