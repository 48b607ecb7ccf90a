//! Cross-thread, cross-route hash-consing: several threads intern overlapping
//! fresh contents through every `Path` construction route at once — value
//! iterators, slices, cuts, views, compositions, singletons, `push` and
//! `extend` — and every thread and route must agree on one id per content.
//!
//! The path store is process-global, so this file is its own test binary:
//! the store grows by exactly what this test interns, and the test checks
//! that growth against the number of distinct contents it built.

use sequence_datalog::core::{atom, store_stats, AtomId, Path, PathId, PathView, Value};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Barrier;

const THREADS: usize = 4;
/// Fresh atoms `a0..a4`; code `k < ATOMS` is atom `k`, code `ATOMS + k` is
/// the packed value `⟨a_k · a_(k+1 mod ATOMS)⟩`.
const ATOMS: u32 = 5;
/// Code `MARKER + i` is the marker atom bracketing content `i`'s cut parent.
const MARKER: u32 = 100;
const CONTENTS: usize = 12;

/// A path's content as symbol codes, independent of any interned id.
type Key = Vec<u32>;

struct Alphabet {
    atoms: Vec<AtomId>,
    markers: Vec<AtomId>,
}

impl Alphabet {
    fn value(&self, code: u32) -> Value {
        if code >= MARKER {
            Value::Atom(self.markers[(code - MARKER) as usize])
        } else if code >= ATOMS {
            let k = code - ATOMS;
            let inner = [
                self.atoms[k as usize],
                self.atoms[((k + 1) % ATOMS) as usize],
            ];
            Value::packed(Path::from_values(inner.map(Value::Atom)))
        } else {
            Value::Atom(self.atoms[code as usize])
        }
    }

    fn key(&self, path: &Path) -> Key {
        path.iter().map(|v| self.code(v)).collect()
    }

    fn code(&self, value: &Value) -> u32 {
        match value {
            Value::Atom(a) => {
                if let Some(k) = self.atoms.iter().position(|x| x == a) {
                    k as u32
                } else {
                    let i = self
                        .markers
                        .iter()
                        .position(|x| x == a)
                        .expect("known atom");
                    MARKER + i as u32
                }
            }
            Value::Packed(p) => {
                let inner = self.key(p);
                let k = inner[0];
                assert_eq!(inner, vec![k, (k + 1) % ATOMS], "unexpected packed content");
                ATOMS + k
            }
        }
    }
}

/// Every path one thread built, by content, checking that all routes of this
/// thread agree on each content's id.
struct Seen<'a> {
    alphabet: &'a Alphabet,
    ids: BTreeMap<Key, PathId>,
}

impl Seen<'_> {
    fn record(&mut self, path: Path) -> Key {
        let key = self.alphabet.key(&path);
        let id = *self.ids.entry(key.clone()).or_insert(path.id());
        assert_eq!(id, path.id(), "two routes gave {key:?} different ids");
        key
    }

    fn expect(&mut self, path: Path, key: &[u32]) {
        assert_eq!(self.record(path), key);
    }
}

fn content_codes(i: usize) -> Key {
    let len = 1 + i % 5;
    (0..len)
        .map(|j| ((i * 7 + j * 3) % (2 * ATOMS as usize)) as u32)
        .collect()
}

fn intern_every_route(seen: &mut Seen<'_>, i: usize) {
    let codes = content_codes(i);
    let values: Vec<Value> = codes.iter().map(|&c| seen.alphabet.value(c)).collect();
    for v in &values {
        let code = seen.alphabet.code(v);
        seen.expect(Path::singleton(*v), &[code]);
        if let Value::Packed(inner) = v {
            seen.record(*inner);
        }
    }
    seen.expect(Path::from_values(values.iter().copied()), &codes);
    seen.expect(Path::from_slice(&values), &codes);

    let mut pushed = Path::empty();
    for (n, v) in values.iter().enumerate() {
        pushed.push(*v);
        seen.expect(pushed, &codes[..=n]);
    }
    let mut extended = Path::empty();
    extended.extend(values.iter().copied());
    seen.expect(extended, &codes);

    for mid in 0..=values.len() {
        let left = Path::from_slice(&values[..mid]);
        let right = Path::from_slice(&values[mid..]);
        seen.expect(left, &codes[..mid]);
        seen.expect(right, &codes[mid..]);
        seen.expect(left.concat(&right), &codes);
        // The head-grounding route: single values, then a stored path's
        // values spliced in, interned once from the built content.
        let mut built = values[..mid].to_vec();
        built.extend_from_slice(right.values());
        seen.expect(Path::from_slice(&built), &codes);
    }

    // Cuts of `m·content·m`, with `m` a marker no other content holds: a cut
    // that keeps a marker can only ever be interned as a cut of this parent,
    // so it must alias the parent's storage whichever thread interned it.
    let marker = seen.alphabet.markers[i];
    let mut parent_values = vec![Value::Atom(marker)];
    parent_values.extend_from_slice(&values);
    parent_values.push(Value::Atom(marker));
    let parent = Path::from_slice(&parent_values);
    seen.record(parent);
    let storage = parent.values().as_ptr_range();
    let n = parent.len();
    let mut cuts = BTreeSet::new();
    for start in 0..=n {
        for end in start..=n {
            let cut = parent.subpath(start, end);
            let view = PathView::cut(parent, start, end).to_path();
            assert_eq!(cut.id(), view.id(), "subpath and view disagree");
            let key = seen.record(cut);
            let expected: Key = parent_values[start..end]
                .iter()
                .map(|v| seen.alphabet.code(v))
                .collect();
            assert_eq!(key, expected);
            if (start == 0 || end == n) && end > start {
                assert!(
                    storage.contains(&cut.values().as_ptr()),
                    "cut {start}..{end} of content {i} does not alias its parent"
                );
            }
            cuts.insert(cut.id().index());
        }
    }
    let iterated: BTreeSet<u32> = parent
        .subpaths()
        .map(|sub| {
            seen.record(sub);
            sub.id().index()
        })
        .collect();
    assert_eq!(iterated, cuts, "subpaths() disagrees with subpath cuts");
}

#[test]
fn every_thread_and_route_agrees_on_each_id() {
    let alphabet = Alphabet {
        atoms: (0..ATOMS).map(|k| atom(&format!("xroute_a{k}"))).collect(),
        markers: (0..CONTENTS)
            .map(|i| atom(&format!("xroute_m{i}")))
            .collect(),
    };
    let before = store_stats().distinct_paths;
    let barrier = Barrier::new(THREADS);
    let per_thread: Vec<BTreeMap<Key, PathId>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let (alphabet, barrier) = (&alphabet, &barrier);
                scope.spawn(move || {
                    let mut seen = Seen {
                        alphabet,
                        ids: BTreeMap::new(),
                    };
                    barrier.wait();
                    // Each thread walks the contents from its own offset, so
                    // threads race on overlapping contents.
                    for n in 0..CONTENTS {
                        intern_every_route(&mut seen, (n + t * 5) % CONTENTS);
                    }
                    seen.ids
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("thread panicked"))
            .collect()
    });

    let mut all: BTreeMap<Key, PathId> = BTreeMap::new();
    for ids in &per_thread {
        for (key, id) in ids {
            let first = *all.entry(key.clone()).or_insert(*id);
            assert_eq!(first, *id, "threads disagree on the id of {key:?}");
        }
    }
    let distinct_ids: BTreeSet<u32> = all.values().map(|id| id.index()).collect();
    assert_eq!(distinct_ids.len(), all.len(), "two contents share an id");
    assert_eq!(all[&Key::new()], PathId::EMPTY);
    // `ε` was in the store before the test started.
    let new_contents = all.len() - 1;
    let grown = store_stats().distinct_paths - before;
    assert_eq!(
        grown, new_contents,
        "store grew by {grown} for {new_contents} contents"
    );
}
