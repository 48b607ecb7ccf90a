//! Schemas, relations, facts, and instances (Sections 2.1 and 2.3).
//!
//! An *instance* `I` of a schema `Γ` assigns to each relation name a finite n-ary
//! relation on paths.  Equivalently (Section 2.3) an instance is a finite set of
//! *facts* `R(p1, …, pn)`.  Both views are exposed here: [`Instance`] stores
//! relations keyed by name and iterates as facts.  Paths are interned, so a
//! row is `n` four-byte path ids, and a [`Relation`] keeps its rows back to
//! back in one [`Rows`] arena; [`Fact`] is the owned value of a single fact.

use crate::error::CoreError;
use crate::hash::{FxHasher, FxMap};
use crate::interner::{AtomId, RelName};
use crate::path::Path;
use crate::render;
use crate::value::Value;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// A tuple of paths — one row of an n-ary relation, owned.  With paths
/// interned, this is a vector of `u32` ids: four bytes per column.  Stored
/// relations keep their rows flat in [`Rows`] instead; a `Tuple` is the
/// owned value of a single [`Fact`].
pub type Tuple = Vec<Path>;

fn hash_row(row: &[Path]) -> u64 {
    let mut h = FxHasher::default();
    row.hash(&mut h);
    // This crate's unit tests keep two bits of the hash, so distinct rows
    // collide and every dedup path walks a chain of older ids.
    if cfg!(test) {
        h.finish() & 0b11
    } else {
        h.finish()
    }
}

/// The end of a row-id chain, and so the one id a relation never hands out.
const NO_ID: u32 = u32::MAX;

/// The id the next row of `relation` gets when it already holds `len` rows.
/// Ids are `u32`s below [`NO_ID`], so a relation holds at most `u32::MAX`
/// rows.
fn next_row_id(relation: RelName, len: usize) -> Result<u32, CoreError> {
    u32::try_from(len)
        .ok()
        .filter(|&id| id != NO_ID)
        .ok_or(CoreError::TooManyTuples {
            relation,
            limit: NO_ID as usize,
        })
}

const NO_ENTRIES: &[BucketEntry] = &[];

/// Fixed-arity rows of paths, stored back to back in one row-major arena:
/// row `i` is the `arity` paths starting at `i · arity`, so a stored row
/// costs its paths and nothing more.  The row count is kept on its own,
/// because nullary rows take no paths.
///
/// A [`Relation`] keeps its rows here, and each evaluation job collects the
/// rows it derives for its one head relation in a `Rows` of its own.
#[derive(Clone, Debug)]
pub struct Rows {
    arity: usize,
    len: usize,
    paths: Vec<Path>,
}

impl Rows {
    /// No rows, of the given arity.
    pub const fn new(arity: usize) -> Rows {
        Rows {
            arity,
            len: 0,
            paths: Vec::new(),
        }
    }

    /// The number of paths in each row.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// The number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Are there no rows?
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Append a row.
    ///
    /// # Panics
    /// Panics if the row's length is not the arity.
    pub fn push(&mut self, row: &[Path]) {
        assert_eq!(row.len(), self.arity, "a row has one path per column");
        self.paths.extend_from_slice(row);
        self.len += 1;
    }

    /// Row `i` (in push order).
    ///
    /// # Panics
    /// Panics if `i` is out of range (for arity ≥ 1).
    pub fn row(&self, i: usize) -> &[Path] {
        debug_assert!(i < self.len, "row {i} of {}", self.len);
        &self.paths[i * self.arity..(i + 1) * self.arity]
    }

    /// The rows in push order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &[Path]> + '_ {
        self.slice_from(0)
    }

    /// The rows from index `start` on (none if `start` is past the end).
    /// With `start` taken from an earlier [`Rows::len`], these are the rows
    /// pushed since.
    pub fn slice_from(&self, start: usize) -> impl ExactSizeIterator<Item = &[Path]> + '_ {
        let arity = self.arity;
        (start.min(self.len)..self.len).map(move |i| &self.paths[i * arity..(i + 1) * arity])
    }
}

/// One candidate in a column bucket: the tuple id plus enough metadata — the
/// column path's total length and the value *after* the first — for the
/// evaluator to finish matching flat single-column patterns from the bucket
/// alone, sequentially, without dereferencing the tuple store at all.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BucketEntry {
    /// The tuple id (ascending within a bucket).
    pub id: u32,
    /// Total length of the column's path.
    pub len: u32,
    next_val: u32,
    next_tag: u8,
}

const NEXT_NONE: u8 = 0;
const NEXT_ATOM: u8 = 1;
const NEXT_PACKED: u8 = 2;

impl BucketEntry {
    fn new(id: u32, values: &[Value]) -> BucketEntry {
        let (next_tag, next_val) = match values.get(1) {
            None => (NEXT_NONE, 0),
            Some(Value::Atom(a)) => (NEXT_ATOM, a.symbol().index()),
            Some(Value::Packed(p)) => (NEXT_PACKED, p.id().index()),
        };
        BucketEntry {
            id,
            len: u32::try_from(values.len()).expect("path longer than u32::MAX"),
            next_val,
            next_tag,
        }
    }

    /// The atom right after the column's first value, if the path continues
    /// with an atomic value there.
    pub fn next_atom(&self) -> Option<AtomId> {
        (self.next_tag == NEXT_ATOM)
            .then(|| AtomId::from_symbol(crate::interner::Symbol::from_index(self.next_val)))
    }
}

/// What an unfilled slot of a [`ColumnIndex`] slab holds; no probe ever
/// returns it.
const FREE_SLOT: BucketEntry = BucketEntry {
    id: NO_ID,
    len: 0,
    next_val: 0,
    next_tag: NEXT_NONE,
};

/// One first value's bucket in a [`ColumnIndex`] slab: its entries are
/// `start..start + len`, and it owns the `cap` slots from `start`.
#[derive(Clone, Copy, Debug)]
struct Span {
    start: u32,
    len: u32,
    cap: u32,
}

/// A slab position as a span field.
fn slab_offset(at: usize) -> u32 {
    u32::try_from(at).expect("column index slab beyond u32::MAX entries")
}

/// The index of one column: tuples keyed by the *first value* of the
/// column's path.  Values are interned ids, so a probe is one hash lookup on
/// an eight-byte key, and packed values key on their exact interned
/// identity.  Columns that are `ε` have no first value and are not indexed.
///
/// Every bucket lives in one slab of entries shared by the column: a first
/// value maps to its span of the slab.  An insert fills a free slot of
/// its span; a full span at the slab's end grows in place, and any other
/// full span moves to the end with twice the slots, leaving its old ones
/// dead.  When dead slots outnumber live entries the slab is compacted.  So
/// the index allocates when the slab or the span map doubles, never per
/// first value.  Sorted input (every row of a first value in one run) fills
/// the slab back to back and leaves no slot dead.
#[derive(Clone, Debug, Default)]
pub struct ColumnIndex {
    spans: FxMap<Value, Span>,
    entries: Vec<BucketEntry>,
    /// Entries in spans: the rows indexed so far.
    live: usize,
    /// Slots that belonged to a span before it moved.
    dead: usize,
}

impl ColumnIndex {
    fn insert(&mut self, path: &Path, id: u32) {
        let values = path.values();
        let Some(first) = values.first() else {
            return;
        };
        let entry = BucketEntry::new(id, values);
        let end = self.entries.len();
        let span = self.spans.entry(*first).or_insert(Span {
            start: slab_offset(end),
            len: 0,
            cap: 0,
        });
        let (start, len, cap) = (span.start as usize, span.len as usize, span.cap as usize);
        if len < cap {
            self.entries[start + len] = entry;
        } else if start + cap == end {
            self.entries.push(entry);
            span.cap += 1;
        } else {
            self.entries.extend_from_within(start..start + len);
            self.entries.push(entry);
            self.entries.resize(end + 2 * cap, FREE_SLOT);
            span.start = slab_offset(end);
            span.cap = slab_offset(2 * cap);
            self.dead += cap;
        }
        span.len += 1;
        self.live += 1;
        if self.dead > self.live {
            self.compact();
        }
    }

    /// Rewrite the slab with the spans back to back and no free or dead
    /// slots.
    fn compact(&mut self) {
        let mut entries = Vec::with_capacity(self.live);
        for span in self.spans.values_mut() {
            let start = span.start as usize;
            span.start = slab_offset(entries.len());
            span.cap = span.len;
            entries.extend_from_slice(&self.entries[start..start + span.len as usize]);
        }
        self.entries = entries;
        self.dead = 0;
    }

    /// The candidates (ascending by id) whose column path starts with
    /// `first`.  Each [`BucketEntry`] carries the path length and the value
    /// after `first`, so flat single-column patterns finish matching on the
    /// bucket alone.
    pub fn probe(&self, first: &Value) -> &[BucketEntry] {
        self.spans.get(first).map_or(NO_ENTRIES, |span| {
            let start = span.start as usize;
            &self.entries[start..start + span.len as usize]
        })
    }
}

/// A fact `R(p1, …, pn)`.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct Fact {
    /// The relation name.
    pub relation: RelName,
    /// The component paths.
    pub tuple: Tuple,
}

impl Fact {
    /// Build a fact.
    pub fn new(relation: RelName, tuple: Tuple) -> Fact {
        Fact { relation, tuple }
    }

    /// Arity of the fact.
    pub fn arity(&self) -> usize {
        self.tuple.len()
    }
}

fn fmt_fact(f: &mut fmt::Formatter<'_>, relation: RelName, tuple: &[Path]) -> fmt::Result {
    write!(f, "{relation}(")?;
    render::write_args(f, tuple.iter().map(Path::values), &mut render::Interned)?;
    f.write_str(")")
}

impl fmt::Display for Fact {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_fact(f, self.relation, &self.tuple)
    }
}

/// A schema: a finite set of relation names, each with an arity (Section 2.1).
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Schema {
    arities: BTreeMap<RelName, usize>,
}

impl Schema {
    /// The empty schema.
    pub fn new() -> Schema {
        Schema::default()
    }

    /// Build a schema from `(name, arity)` pairs.
    pub fn from_pairs<'a>(pairs: impl IntoIterator<Item = (&'a str, usize)>) -> Schema {
        let mut s = Schema::new();
        for (name, arity) in pairs {
            s.declare(RelName::new(name), arity);
        }
        s
    }

    /// Declare (or re-declare) a relation name with the given arity.
    pub fn declare(&mut self, relation: RelName, arity: usize) {
        self.arities.insert(relation, arity);
    }

    /// The arity of `relation`, if declared.
    pub fn arity(&self, relation: RelName) -> Option<usize> {
        self.arities.get(&relation).copied()
    }

    /// Does the schema declare `relation`?
    pub fn contains(&self, relation: RelName) -> bool {
        self.arities.contains_key(&relation)
    }

    /// Iterate over `(relation, arity)` pairs in [`RelName`] order (the order
    /// the names were first interned).
    pub fn iter(&self) -> impl Iterator<Item = (RelName, usize)> + '_ {
        self.arities.iter().map(|(r, a)| (*r, *a))
    }

    /// Number of declared relation names.
    pub fn len(&self) -> usize {
        self.arities.len()
    }

    /// Is the schema empty?
    pub fn is_empty(&self) -> bool {
        self.arities.is_empty()
    }

    /// A schema is *monadic* if every relation has arity zero or one (Section 3.1).
    pub fn is_monadic(&self) -> bool {
        self.arities.values().all(|&a| a <= 1)
    }
}

/// A finite n-ary relation on paths.
///
/// Storage is *insertion-ordered*: the rows live back to back in one [`Rows`]
/// arena, and a row's position there is its stable *id*.  Because ids only
/// grow, a consumer can remember [`Relation::len`] as a watermark and later
/// read "everything inserted since" through [`Relation::slice_from`] — the
/// shape semi-naive Datalog evaluation needs for delta views without copying
/// rows.  Deduplication is the consing shape of the path store: a row's hash
/// maps to the newest id with that hash, and older ids with an equal hash
/// chain through a per-id `next` array.  Every maintained column keeps one
/// [`ColumnIndex`] from the first value of its path to the rows that start
/// with it ([`Relation::probe_first`]).
#[derive(Clone, Debug)]
pub struct Relation {
    /// The rows in insertion order; a row's index is its id.
    rows: Rows,
    /// Row hash → the newest id with that hash.
    dedup: FxMap<u64, u32>,
    /// Id → the next older id with the same row hash, or [`NO_ID`].
    next: Vec<u32>,
    /// One index per column, created by the first insert: a row brings one
    /// path per column, so the indexes never outgrow the stored data, however
    /// large the declared arity.
    columns: Vec<ColumnIndex>,
    /// Bitmask of maintained column indexes (bit `c` = column `c`; columns
    /// ≥ 64 are always maintained).  A cleared bit means the column's index
    /// is empty and skipped on insert — the evaluator clears bits for
    /// columns no plan of the running program can ever probe, so derived
    /// relations stop paying per-insert indexing for answers nobody asks.
    active_columns: u64,
}

impl Relation {
    /// The empty relation of the given arity.
    pub fn new(arity: usize) -> Relation {
        Relation {
            rows: Rows::new(arity),
            dedup: FxMap::default(),
            next: Vec::new(),
            columns: Vec::new(),
            active_columns: !0,
        }
    }

    /// Is the index of `column` maintained (and therefore trustworthy)?
    /// Columns beyond the mask's width are always maintained.
    pub fn column_active(&self, column: usize) -> bool {
        column >= u64::BITS as usize || self.active_columns & (1u64 << column) != 0
    }

    /// Restrict maintained column indexes to the set in `keep` (bit `c` =
    /// column `c`).  Newly-deactivated columns drop their index (inserts stop
    /// indexing them); newly-reactivated columns rebuild theirs from the
    /// stored rows into a slab with no gaps, so the index is immediately
    /// current again.
    pub fn set_active_columns(&mut self, keep: u64) {
        for column in 0..self.columns.len().min(u64::BITS as usize) {
            let bit = 1u64 << column;
            let was = self.active_columns & bit != 0;
            let now = keep & bit != 0;
            if was && !now {
                self.columns[column] = ColumnIndex::default();
            } else if now && !was {
                let mut rebuilt = ColumnIndex::default();
                for (id, row) in self.rows.iter().enumerate() {
                    rebuilt.insert(&row[column], id as u32);
                }
                rebuilt.compact();
                self.columns[column] = rebuilt;
            }
        }
        self.active_columns = keep;
    }

    /// The arity of the relation.
    pub fn arity(&self) -> usize {
        self.rows.arity()
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Is the relation empty?
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Insert a row; returns `true` if it was new.  `relation` is the name this
    /// relation is registered under, used only for error reporting.
    ///
    /// # Errors
    /// Fails if the row's length differs from the relation's arity, or if the
    /// relation already holds `u32::MAX` rows.
    pub fn insert(&mut self, relation: RelName, row: &[Path]) -> Result<bool, CoreError> {
        if row.len() != self.arity() {
            return Err(CoreError::ArityMismatch {
                relation,
                expected: self.arity(),
                found: row.len(),
            });
        }
        let (rows, next) = (&self.rows, &mut self.next);
        let id = match self.dedup.entry(hash_row(row)) {
            std::collections::hash_map::Entry::Occupied(mut newest) => {
                let mut older = *newest.get();
                while older != NO_ID {
                    if rows.row(older as usize) == row {
                        return Ok(false);
                    }
                    older = next[older as usize];
                }
                let id = next_row_id(relation, rows.len())?;
                next.push(newest.insert(id));
                id
            }
            std::collections::hash_map::Entry::Vacant(slot) => {
                let id = next_row_id(relation, rows.len())?;
                next.push(NO_ID);
                *slot.insert(id)
            }
        };
        if self.columns.is_empty() {
            self.columns.resize_with(self.arity(), ColumnIndex::default);
        }
        for (column, path) in row.iter().enumerate() {
            if self.column_active(column) {
                self.columns[column].insert(path, id);
            }
        }
        self.rows.push(row);
        Ok(true)
    }

    /// Does the relation contain `row`?
    pub fn contains(&self, row: &[Path]) -> bool {
        if row.len() != self.arity() {
            return false;
        }
        let mut id = self.dedup.get(&hash_row(row)).copied().unwrap_or(NO_ID);
        while id != NO_ID {
            if self.rows.row(id as usize) == row {
                return true;
            }
            id = self.next[id as usize];
        }
        false
    }

    /// Iterate over the rows in insertion order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &[Path]> + '_ {
        self.rows.iter()
    }

    /// All rows, borrowed, in insertion order (a row's index is its id).
    /// This is the zero-copy way to read a relation.
    pub fn rows(&self) -> &Rows {
        &self.rows
    }

    /// The rows with id ≥ `start`.  With `start` taken from an earlier
    /// [`Relation::len`] call, this is the *delta view* "everything inserted
    /// since" — no rows are copied.
    pub fn slice_from(&self, start: usize) -> impl ExactSizeIterator<Item = &[Path]> + '_ {
        self.rows.slice_from(start)
    }

    /// The index of `column`, if in range, maintained and built (the first
    /// insert builds them).
    fn column_index(&self, column: usize) -> Option<&ColumnIndex> {
        self.column_active(column)
            .then(|| self.columns.get(column))
            .flatten()
    }

    /// The candidates (ascending by id) whose `column`-th path starts with
    /// `first`.  Out-of-range and deactivated columns, and a relation with
    /// no rows yet, yield the empty slice.
    pub fn probe_first(&self, column: usize, first: &Value) -> &[BucketEntry] {
        self.column_index(column)
            .map_or(NO_ENTRIES, |index| index.probe(first))
    }

    /// All rows, copied into owned tuples in lexicographic order.
    ///
    /// This is a snapshot convenience for reporting and tests; hot paths should use
    /// [`Relation::iter`] or [`Relation::rows`] instead, which do not copy.
    pub fn tuples(&self) -> Vec<Tuple> {
        let mut out: Vec<Tuple> = self.iter().map(<[Path]>::to_vec).collect();
        out.sort();
        out
    }
}

/// Relations compare as *sets* of rows: insertion order is storage detail, not
/// semantics.
impl PartialEq for Relation {
    fn eq(&self, other: &Relation) -> bool {
        self.arity() == other.arity()
            && self.len() == other.len()
            && self.iter().all(|row| other.contains(row))
    }
}

impl Eq for Relation {}

/// An instance: a mapping from relation names to relations, equivalently a finite
/// set of facts (Section 2.3).
///
/// Relations are held behind `Arc` with copy-on-write mutation: cloning an
/// instance shares every relation's storage (row arena, dedup chain, column
/// indexes), and a relation is deep-copied only the first time a *clone*
/// writes to it.  Evaluation never writes to EDB relations — rule heads are
/// IDB by definition — so preparing a working instance from an input is O(#
/// relations), not O(data), and the input's indexes are reused as-is.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Instance {
    relations: BTreeMap<RelName, Arc<Relation>>,
}

impl Instance {
    /// The empty instance.
    pub fn new() -> Instance {
        Instance::default()
    }

    /// Build an instance from an iterator of facts.
    ///
    /// # Errors
    /// Fails if two facts use the same relation name with different arities.
    pub fn from_facts(facts: impl IntoIterator<Item = Fact>) -> Result<Instance, CoreError> {
        let mut inst = Instance::new();
        for fact in facts {
            inst.insert_fact(fact)?;
        }
        Ok(inst)
    }

    /// Convenience: a unary instance `{ R(p) | p ∈ paths }` over a single relation.
    pub fn unary(relation: RelName, paths: impl IntoIterator<Item = Path>) -> Instance {
        let mut inst = Instance::new();
        // Registered even when `paths` is empty, with arity 1.
        let rel = inst.relation_mut(relation, 1);
        for p in paths {
            rel.insert(relation, &[p])
                .expect("unary rows cannot mismatch");
        }
        inst
    }

    /// Insert a fact; returns `true` if it was new.
    ///
    /// The relation's arity is fixed by the first fact inserted for it.
    ///
    /// # Errors
    /// Fails on arity mismatch with previously inserted facts, and when the
    /// relation is full.
    pub fn insert_fact(&mut self, fact: Fact) -> Result<bool, CoreError> {
        self.insert_row(fact.relation, &fact.tuple)
    }

    /// Insert the row `relation(row)` without an owned [`Fact`]; returns
    /// `true` if it was new.  The relation's arity is fixed by the first row
    /// inserted for it.
    ///
    /// # Errors
    /// Fails on arity mismatch with previously inserted rows, and when the
    /// relation is full.
    pub fn insert_row(&mut self, relation: RelName, row: &[Path]) -> Result<bool, CoreError> {
        self.relation_mut(relation, row.len()).insert(relation, row)
    }

    /// The relation assigned to `name`, for writing; an absent one is
    /// created empty with the given arity (an existing one keeps its own).
    /// A relation whose storage is shared with a clone of this instance is
    /// copied first.
    pub fn relation_mut(&mut self, name: RelName, arity: usize) -> &mut Relation {
        Arc::make_mut(
            self.relations
                .entry(name)
                .or_insert_with(|| Arc::new(Relation::new(arity))),
        )
    }

    /// Insert an empty relation of the given arity (or leave an existing one alone).
    pub fn declare_relation(&mut self, relation: RelName, arity: usize) {
        self.relations
            .entry(relation)
            .or_insert_with(|| Arc::new(Relation::new(arity)));
    }

    /// The relation assigned to `name`, if present.
    pub fn relation(&self, name: RelName) -> Option<&Relation> {
        self.relations.get(&name).map(|arc| &**arc)
    }

    /// Restrict the maintained column indexes of relation `name` to the mask
    /// `keep` (no-op when the relation is absent); see
    /// [`Relation::set_active_columns`].
    pub fn restrict_column_indexes(&mut self, name: RelName, keep: u64) {
        if let Some(rel) = self.relations.get_mut(&name) {
            Arc::make_mut(rel).set_active_columns(keep);
        }
    }

    /// The set of paths of a unary relation (empty if the relation is absent).
    ///
    /// This is the natural way to read off the answer of a *flat unary query*
    /// (Section 3.1).  For a borrowing walk that builds no set, see
    /// [`Instance::unary_paths_iter`].
    pub fn unary_paths(&self, name: RelName) -> BTreeSet<Path> {
        self.unary_paths_iter(name).collect()
    }

    /// Iterate over the paths of a unary relation without materialising a
    /// set, in insertion order (empty if the relation is absent).
    pub fn unary_paths_iter(&self, name: RelName) -> impl Iterator<Item = Path> + '_ {
        self.relation(name)
            .into_iter()
            .flat_map(|r| r.iter().filter(|row| row.len() == 1).map(|row| row[0]))
    }

    /// Does the instance contain the given fact?
    pub fn contains_fact(&self, fact: &Fact) -> bool {
        self.relation(fact.relation)
            .is_some_and(|r| r.arity() == fact.arity() && r.contains(&fact.tuple))
    }

    /// Is a nullary relation "true" (non-empty)?  Nullary relations model boolean
    /// query results (Example 2.2).
    pub fn nullary_true(&self, name: RelName) -> bool {
        self.relation(name).is_some_and(|r| !r.is_empty())
    }

    /// Relation names present in the instance, collected in [`RelName`] order
    /// (the order the names were first interned).  For a walk that allocates
    /// nothing, see [`Instance::relation_names_iter`].
    pub fn relation_names(&self) -> Vec<RelName> {
        self.relation_names_iter().collect()
    }

    /// Iterate over the relation names of the instance, in [`RelName`] order
    /// (the order the names were first interned), without allocating.
    pub fn relation_names_iter(&self) -> impl Iterator<Item = RelName> + '_ {
        self.relations.keys().copied()
    }

    /// Iterate over all facts of the instance *without copying*, in deterministic
    /// order, as `(relation, row)` pairs.  This is the iterator the instance-wide
    /// classification predicates and [`fmt::Display`] are built on.
    pub fn facts_ref(&self) -> impl Iterator<Item = (RelName, &[Path])> + '_ {
        self.relations
            .iter()
            .flat_map(|(name, rel)| rel.iter().map(move |t| (*name, t)))
    }

    /// Iterate over all facts of the instance, in deterministic order.  Each fact
    /// owns a copy of its row; prefer [`Instance::facts_ref`] where a borrow
    /// suffices.
    pub fn facts(&self) -> impl Iterator<Item = Fact> + '_ {
        self.facts_ref()
            .map(|(name, row)| Fact::new(name, row.to_vec()))
    }

    /// Total number of facts.
    pub fn fact_count(&self) -> usize {
        self.relations.values().map(|r| r.len()).sum()
    }

    /// An instance is *flat* if no packed value occurs anywhere in it (Section 3.1).
    pub fn is_flat(&self) -> bool {
        self.facts_ref()
            .all(|(_, tuple)| tuple.iter().all(Path::is_flat))
    }

    /// An instance is *classical* if every component of every fact is a length-1
    /// path holding an atomic value (Section 2.1).
    pub fn is_classical(&self) -> bool {
        self.facts_ref()
            .all(|(_, tuple)| tuple.iter().all(|p| p.len() == 1 && p[0].is_atom()))
    }

    /// An instance is *two-bounded* if only paths of length one or two occur in it
    /// (Section 5.2).
    pub fn is_two_bounded(&self) -> bool {
        self.facts_ref()
            .all(|(_, tuple)| tuple.iter().all(|p| (1..=2).contains(&p.len())))
    }

    /// The largest path length occurring in the instance (0 for the empty instance).
    /// Used to state the linear output bound of Lemma 5.1.
    pub fn max_path_len(&self) -> usize {
        self.facts_ref()
            .flat_map(|(_, tuple)| tuple.iter().map(Path::len))
            .max()
            .unwrap_or(0)
    }

    /// The schema induced by this instance.
    pub fn schema(&self) -> Schema {
        let mut s = Schema::new();
        for (name, rel) in &self.relations {
            s.declare(*name, rel.arity());
        }
        s
    }

    /// Restrict the instance to the relations of `schema` (dropping others).
    /// Relation storage is shared, not copied.
    pub fn project_to_schema(&self, schema: &Schema) -> Instance {
        let mut out = Instance::new();
        for (name, rel) in &self.relations {
            if schema.contains(*name) {
                out.relations.insert(*name, Arc::clone(rel));
            }
        }
        out
    }

    /// Union of two instances (relations are merged; arities must agree).
    ///
    /// # Errors
    /// Fails if a relation appears in both with different arities.
    pub fn union(&self, other: &Instance) -> Result<Instance, CoreError> {
        let mut out = self.clone();
        for (name, row) in other.facts_ref() {
            out.insert_row(name, row)?;
        }
        // Preserve empty relations declared in `other`.
        for (name, rel) in &other.relations {
            out.declare_relation(*name, rel.arity());
        }
        Ok(out)
    }

    /// All atomic values appearing anywhere in the instance (the instance's *active
    /// domain*).
    pub fn active_atoms(&self) -> BTreeSet<AtomId> {
        fn collect(value: &Value, out: &mut BTreeSet<AtomId>) {
            match value {
                Value::Atom(a) => {
                    out.insert(*a);
                }
                Value::Packed(p) => {
                    for v in p.iter() {
                        collect(v, out);
                    }
                }
            }
        }
        let mut out = BTreeSet::new();
        for (_, row) in self.facts_ref() {
            for path in row {
                for v in path.iter() {
                    collect(v, &mut out);
                }
            }
        }
        out
    }
}

impl fmt::Display for Instance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (name, tuple) in self.facts_ref() {
            if !first {
                f.write_str("\n")?;
            }
            fmt_fact(f, name, tuple)?;
            f.write_str(".")?;
            first = false;
        }
        Ok(())
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::{atom, path_of, rel, repeat_path};

    fn fact(r: &str, paths: &[&[&str]]) -> Fact {
        Fact::new(rel(r), paths.iter().map(|names| path_of(names)).collect())
    }

    fn av(name: &str) -> Value {
        Value::Atom(atom(name))
    }

    fn ids(entries: &[BucketEntry]) -> Vec<u32> {
        entries.iter().map(|e| e.id).collect()
    }

    #[test]
    fn schema_basics_and_monadicity() {
        let s = Schema::from_pairs([("R", 1), ("A", 0)]);
        assert_eq!(s.arity(rel("R")), Some(1));
        assert_eq!(s.arity(rel("D")), None);
        assert!(s.is_monadic());
        let s2 = Schema::from_pairs([("D", 3)]);
        assert!(!s2.is_monadic());
        assert_eq!(s.len(), 2);
        assert!(!s.is_empty());
        assert!(Schema::new().is_empty());
    }

    #[test]
    fn facts_display_like_the_paper() {
        let f = fact("R", &[&["a", "b", "a"]]);
        assert_eq!(f.to_string(), "R(a·b·a)");
        let f = fact("D", &[&["q1"], &["a"], &["q2"]]);
        assert_eq!(f.to_string(), "D(q1, a, q2)");
    }

    #[test]
    fn insert_and_query_facts() {
        let mut inst = Instance::new();
        assert!(inst.insert_fact(fact("R", &[&["a", "a"]])).unwrap());
        assert!(!inst.insert_fact(fact("R", &[&["a", "a"]])).unwrap());
        assert!(inst.insert_fact(fact("R", &[&["a", "b"]])).unwrap());
        assert_eq!(inst.fact_count(), 2);
        assert!(inst.contains_fact(&fact("R", &[&["a", "b"]])));
        assert!(!inst.contains_fact(&fact("R", &[&["b", "a"]])));
        assert!(!inst.contains_fact(&fact("S", &[&["a", "b"]])));
        assert_eq!(
            inst.unary_paths(rel("R")),
            BTreeSet::from([path_of(&["a", "a"]), path_of(&["a", "b"])])
        );
        // The borrowing iterator yields the same paths, in insertion order.
        let via_iter: Vec<Path> = inst.unary_paths_iter(rel("R")).collect();
        assert_eq!(via_iter, vec![path_of(&["a", "a"]), path_of(&["a", "b"])]);
        assert_eq!(inst.unary_paths_iter(rel("Absent")).count(), 0);
    }

    #[test]
    fn arity_is_enforced_per_relation() {
        let mut inst = Instance::new();
        inst.insert_fact(fact("D", &[&["q"], &["a"], &["p"]]))
            .unwrap();
        let err = inst.insert_fact(fact("D", &[&["q"], &["a"]])).unwrap_err();
        assert_eq!(
            err,
            CoreError::ArityMismatch {
                relation: rel("D"),
                expected: 3,
                found: 2
            }
        );
    }

    #[test]
    fn unary_constructor_registers_relation_even_when_empty() {
        let inst = Instance::unary(rel("EmptyRel"), []);
        assert!(inst.relation(rel("EmptyRel")).is_some());
        assert_eq!(inst.unary_paths(rel("EmptyRel")), BTreeSet::new());
    }

    #[test]
    fn flat_classical_and_two_bounded_classification() {
        let flat = Instance::unary(rel("R"), [repeat_path("a", 3)]);
        assert!(flat.is_flat());
        assert!(!flat.is_classical());
        assert!(!flat.is_two_bounded());

        let classical = Instance::unary(rel("N"), [path_of(&["q0"])]);
        assert!(classical.is_classical());
        assert!(classical.is_two_bounded());

        let mut packed = Instance::new();
        packed
            .insert_fact(Fact::new(
                rel("T"),
                vec![Path::from_values([Value::packed(path_of(&["s"]))])],
            ))
            .unwrap();
        assert!(!packed.is_flat());
        assert!(!packed.is_classical());
    }

    #[test]
    fn nullary_relations_model_boolean_results() {
        let mut inst = Instance::new();
        assert!(!inst.nullary_true(rel("Answer")));
        inst.insert_fact(Fact::new(rel("Answer"), vec![])).unwrap();
        assert!(inst.nullary_true(rel("Answer")));
    }

    #[test]
    fn union_merges_and_checks_arity() {
        let a = Instance::unary(rel("R"), [path_of(&["x"])]);
        let b = Instance::unary(rel("S"), [path_of(&["y"])]);
        let u = a.union(&b).unwrap();
        assert_eq!(u.fact_count(), 2);

        let mut c = Instance::new();
        c.insert_fact(fact("R", &[&["x"], &["y"]])).unwrap();
        assert!(a.union(&c).is_err());
    }

    #[test]
    fn schema_induction_and_projection() {
        let mut inst = Instance::new();
        inst.insert_fact(fact("R", &[&["x"]])).unwrap();
        inst.insert_fact(fact("D", &[&["q"], &["a"], &["p"]]))
            .unwrap();
        let schema = inst.schema();
        assert_eq!(schema.arity(rel("D")), Some(3));
        let only_r = Schema::from_pairs([("R", 1)]);
        let projected = inst.project_to_schema(&only_r);
        assert_eq!(projected.relation_names(), vec![rel("R")]);
        assert_eq!(
            projected.relation_names_iter().collect::<Vec<_>>(),
            vec![rel("R")]
        );
    }

    #[test]
    fn active_atoms_looks_inside_packing() {
        let mut inst = Instance::new();
        inst.insert_fact(Fact::new(
            rel("T"),
            vec![Path::from_values([
                Value::atom("c"),
                Value::packed(path_of(&["a", "b"])),
            ])],
        ))
        .unwrap();
        let atoms = inst.active_atoms();
        assert!(atoms.contains(&atom("a")));
        assert!(atoms.contains(&atom("b")));
        assert!(atoms.contains(&atom("c")));
        assert_eq!(atoms.len(), 3);
    }

    #[test]
    fn max_path_len_over_instance() {
        assert_eq!(Instance::new().max_path_len(), 0);
        let inst = Instance::unary(rel("R"), [repeat_path("a", 7), repeat_path("a", 2)]);
        assert_eq!(inst.max_path_len(), 7);
    }

    #[test]
    fn relation_insert_reports_the_real_name_and_expected_arity() {
        let mut r = Relation::new(3);
        let err = r
            .insert(rel("D"), &[path_of(&["q"]), path_of(&["a"])])
            .unwrap_err();
        assert_eq!(
            err,
            CoreError::ArityMismatch {
                relation: rel("D"),
                expected: 3,
                found: 2
            }
        );
    }

    #[test]
    fn relation_storage_is_insertion_ordered_with_stable_ids() {
        let mut r = Relation::new(1);
        r.insert(rel("R"), &[path_of(&["b"])]).unwrap();
        r.insert(rel("R"), &[path_of(&["a"])]).unwrap();
        assert!(!r.insert(rel("R"), &[path_of(&["b"])]).unwrap());
        // Insertion order is preserved; `tuples()` snapshots sort.
        assert_eq!(r.rows().row(0), [path_of(&["b"])]);
        assert_eq!(r.rows().row(1), [path_of(&["a"])]);
        assert_eq!(
            r.tuples(),
            vec![vec![path_of(&["a"])], vec![path_of(&["b"])]]
        );
        // Watermark slices expose exactly the rows inserted since.
        let mark = r.len();
        r.insert(rel("R"), &[path_of(&["c"])]).unwrap();
        assert_eq!(r.slice_from(mark).collect::<Vec<_>>(), [[path_of(&["c"])]]);
        assert_eq!(r.slice_from(17).len(), 0);
        // Set semantics for equality, independent of insertion order.
        let mut other = Relation::new(1);
        for name in ["c", "b", "a"] {
            other.insert(rel("R"), &[path_of(&[name])]).unwrap();
        }
        assert_eq!(r, other);
        other.insert(rel("R"), &[path_of(&["d"])]).unwrap();
        assert_ne!(r, other);
    }

    #[test]
    fn rows_are_stored_back_to_back() {
        let mut rows = Rows::new(2);
        rows.push(&[path_of(&["a"]), path_of(&["b"])]);
        rows.push(&[Path::empty(), path_of(&["c", "d"])]);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows.row(1), [Path::empty(), path_of(&["c", "d"])]);
        assert_eq!(rows.slice_from(1).collect::<Vec<_>>(), [rows.row(1)]);
        // Nullary rows take no paths, so the count is kept on its own.
        let mut nullary = Rows::new(0);
        nullary.push(&[]);
        nullary.push(&[]);
        assert_eq!(nullary.len(), 2);
        assert_eq!(nullary.iter().count(), 2);
        assert!(nullary.iter().all(<[Path]>::is_empty));
        assert_eq!(nullary.slice_from(1).len(), 1);
    }

    #[test]
    fn colliding_rows_chain_through_older_ids() {
        // Unit tests fold row hashes to two bits: 40 distinct rows share
        // four chains, so every insert and lookup below walks one.
        let mut r = Relation::new(2);
        let row = |i: usize| [path_of(&[&format!("x{i}")]), repeat_path("a", i % 3)];
        for i in 0..40 {
            assert!(r.insert(rel("C"), &row(i)).unwrap(), "row {i}");
        }
        for i in 0..40 {
            assert!(!r.insert(rel("C"), &row(i)).unwrap(), "row {i} again");
            assert!(r.contains(&row(i)));
            assert_eq!(r.rows().row(i), row(i));
        }
        assert!(!r.contains(&row(40)));
        assert_eq!(r.len(), 40);
    }

    #[test]
    fn nullary_relations_hold_at_most_one_row() {
        let mut r = Relation::new(0);
        assert!(!r.contains(&[]));
        assert!(r.insert(rel("Flag"), &[]).unwrap());
        assert!(!r.insert(rel("Flag"), &[]).unwrap());
        assert_eq!(r.len(), 1);
        assert!(r.contains(&[]));
        assert_eq!(r.iter().collect::<Vec<_>>(), [&[] as &[Path]]);
    }

    #[test]
    fn row_ids_stop_below_u32_max() {
        let last = u32::MAX as usize - 1;
        assert_eq!(next_row_id(rel("R"), 0), Ok(0));
        assert_eq!(next_row_id(rel("R"), last), Ok(u32::MAX - 1));
        let full = CoreError::TooManyTuples {
            relation: rel("R"),
            limit: u32::MAX as usize,
        };
        assert_eq!(next_row_id(rel("R"), last + 1), Err(full.clone()));
        assert_eq!(next_row_id(rel("R"), usize::MAX), Err(full));
    }

    #[test]
    fn column_index_probes_by_first_value() {
        let mut r = Relation::new(2);
        // Before the first insert no column index exists, and probes miss.
        assert!(r.column_index(0).is_none());
        assert!(r.probe_first(0, &av("a")).is_empty());
        r.insert(rel("T"), &[path_of(&["a", "b", "c"]), Path::empty()])
            .unwrap();
        r.insert(rel("T"), &[path_of(&["a", "b"]), path_of(&["c"])])
            .unwrap();
        r.insert(rel("T"), &[path_of(&["a"]), path_of(&["c"])])
            .unwrap();
        r.insert(
            rel("T"),
            &[
                Path::singleton(Value::packed(path_of(&["z"]))),
                path_of(&["c"]),
            ],
        )
        .unwrap();
        assert_eq!(ids(r.probe_first(0, &av("a"))), vec![0, 1, 2]);
        assert_eq!(ids(r.probe_first(1, &av("c"))), vec![1, 2, 3]);
        // Entries carry the candidate's length and the value after the
        // first, so flat patterns can finish matching bucket-side.
        let bucket = r.probe_first(0, &av("a"));
        assert_eq!(bucket[0].len, 3);
        assert_eq!(bucket[0].next_atom(), Some(atom("b")));
        assert_eq!(bucket[2].len, 1);
        assert_eq!(bucket[2].next_atom(), None);
        // Packed first values key on their exact identity.
        let packed = Value::packed(path_of(&["z"]));
        assert_eq!(ids(r.probe_first(0, &packed)), vec![3]);
        assert!(r.probe_first(0, &Value::packed(path_of(&["w"]))).is_empty());
        // Misses and out-of-range columns yield empty sets.
        assert!(r.probe_first(1, &av("z")).is_empty());
        assert!(r.probe_first(9, &av("a")).is_empty());
        // A deactivated column reports no index; reactivating rebuilds it.
        r.set_active_columns(0b10);
        assert!(r.column_index(0).is_none());
        assert!(r.probe_first(0, &av("a")).is_empty());
        r.set_active_columns(0b11);
        assert_eq!(ids(r.probe_first(0, &av("a"))), vec![0, 1, 2]);
    }

    #[test]
    fn round_robin_inserts_move_buckets_and_keep_dead_slots_below_live() {
        // Rows cycle through the first values, so every bucket but the one at
        // the slab's end fills up and moves, over and over.
        let keys: Vec<Value> = (0..7).map(|k| av(&format!("rr{k}"))).collect();
        let mut r = Relation::new(1);
        let (mut moved, mut compacted, mut last_dead) = (false, false, 0);
        for id in 0..500 {
            let first = keys[id % keys.len()];
            let row = [Path::from_values([first, av(&format!("rr_tail{id}"))])];
            assert!(r.insert(rel("RR"), &row).unwrap());
            let index = r.column_index(0).unwrap();
            assert!(
                index.dead <= index.live,
                "{} dead, {} live",
                index.dead,
                index.live
            );
            assert_eq!(index.live, id + 1);
            moved |= index.dead > last_dead;
            compacted |= index.dead < last_dead;
            last_dead = index.dead;
            for (k, key) in keys.iter().enumerate() {
                let want: Vec<u32> = (k..=id).step_by(keys.len()).map(|i| i as u32).collect();
                assert_eq!(ids(r.probe_first(0, key)), want, "key {k} after row {id}");
            }
        }
        assert!(moved && compacted, "moved {moved}, compacted {compacted}");
        // Reactivating the column rebuilds the slab with no gaps.
        r.set_active_columns(0);
        r.set_active_columns(1);
        let index = r.column_index(0).unwrap();
        assert_eq!((index.entries.len(), index.dead), (500, 0));
        for (k, key) in keys.iter().enumerate() {
            let bucket = r.probe_first(0, key);
            assert_eq!(
                ids(bucket),
                (k..500).step_by(7).map(|i| i as u32).collect::<Vec<_>>()
            );
            assert!(bucket.iter().all(|e| e.len == 2));
        }
    }

    #[test]
    fn borrowing_facts_iterator_agrees_with_the_owning_one() {
        let mut inst = Instance::new();
        inst.insert_fact(fact("R", &[&["x"]])).unwrap();
        inst.insert_fact(fact("D", &[&["q"], &["a"], &["p"]]))
            .unwrap();
        let owned: Vec<Fact> = inst.facts().collect();
        let borrowed: Vec<Fact> = inst
            .facts_ref()
            .map(|(name, row)| Fact::new(name, row.to_vec()))
            .collect();
        assert_eq!(owned, borrowed);
    }

    #[test]
    fn display_lists_facts_deterministically() {
        let mut inst = Instance::new();
        inst.insert_fact(fact("S", &[&["b"]])).unwrap();
        inst.insert_fact(fact("R", &[&["a"]])).unwrap();
        let text = inst.to_string();
        assert_eq!(text, "R(a).\nS(b).");
    }
}
