//! The one text rendering of values, paths and answer rows.
//!
//! Every printed path goes through one routine, `write_path`: `eps` for the
//! empty path, `·` between values, `<…>` around a packed value, and each atom
//! bare when its name is a nonempty run of ASCII alphanumerics and `_` other
//! than `eps`, single-quoted (with `'` written `\'` and `\` written `\\`)
//! otherwise, so the text re-parses.  The `Display` impls of [`Value`], [`Path`], [`crate::PathView`]
//! and [`crate::Fact`] look each atom up in the interner as they go.  A
//! [`Renderer`] instead keeps a dense per-render cache of each atom's printed
//! text, so printing a relation of many rows takes one interner lookup per
//! distinct atom rather than one lock per occurrence.

use crate::interner::{AtomId, RelName};
use crate::path::Path;
use crate::value::Value;
use std::fmt::{self, Write};

/// Write an atom's printed text: the name itself when it is bare, quoted
/// otherwise.
fn write_atom_name<W: Write>(out: &mut W, name: &str) -> fmt::Result {
    let bare = !name.is_empty()
        && name.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'_')
        && name != "eps";
    if bare {
        return out.write_str(name);
    }
    out.write_char('\'')?;
    let mut run_start = 0;
    for (i, b) in name.bytes().enumerate() {
        if b == b'\'' || b == b'\\' {
            out.write_str(&name[run_start..i])?;
            out.write_char('\\')?;
            run_start = i;
        }
    }
    out.write_str(&name[run_start..])?;
    out.write_char('\'')
}

/// Where the printed text of an atom comes from while a path is written.
pub(crate) trait AtomText {
    /// Write the printed text of `atom` to `out`.
    fn write_atom<W: Write>(&mut self, out: &mut W, atom: AtomId) -> fmt::Result;
}

/// Looks every atom up in the interner: the source the `Display` impls use.
pub(crate) struct Interned;

impl AtomText for Interned {
    fn write_atom<W: Write>(&mut self, out: &mut W, atom: AtomId) -> fmt::Result {
        atom.symbol().with_name(|name| write_atom_name(out, name))
    }
}

/// Atom index → the atom's printed text, filled on first use.
#[derive(Default)]
struct AtomCache {
    /// `spans[i]` is the range of atom `i`'s text in `text`; `(0, 0)` until
    /// the atom is first printed (no atom prints as the empty string).
    spans: Vec<(u32, u32)>,
    text: String,
}

impl AtomCache {
    /// The printed text of `atom`, cached on first use.
    fn text(&mut self, atom: AtomId) -> &str {
        let ix = atom.symbol().index() as usize;
        if ix >= self.spans.len() {
            self.spans.resize(ix + 1, (0, 0));
        }
        if self.spans[ix].1 == 0 {
            let offset = |text: &String| u32::try_from(text.len()).expect("atom texts under 4 GiB");
            let start = offset(&self.text);
            atom.symbol()
                .with_name(|name| write_atom_name(&mut self.text, name))
                .expect("writing to a String cannot fail");
            self.spans[ix] = (start, offset(&self.text));
        }
        let (start, end) = self.spans[ix];
        &self.text[start as usize..end as usize]
    }

    /// The length in bytes of the text `write_path` prints for `values`.
    fn path_len(&mut self, values: &[Value]) -> usize {
        if values.is_empty() {
            return "eps".len();
        }
        let separators = "·".len() * (values.len() - 1);
        values.iter().fold(separators, |len, value| {
            len + match *value {
                Value::Atom(a) => self.text(a).len(),
                Value::Packed(p) => "<>".len() + self.path_len(p.values()),
            }
        })
    }
}

impl AtomText for AtomCache {
    fn write_atom<W: Write>(&mut self, out: &mut W, atom: AtomId) -> fmt::Result {
        out.write_str(self.text(atom))
    }
}

/// Write one value: an atom's text, or `<p>` for a packed path `p`.
pub(crate) fn write_value<W: Write, A: AtomText>(
    out: &mut W,
    value: Value,
    atoms: &mut A,
) -> fmt::Result {
    match value {
        Value::Atom(a) => atoms.write_atom(out, a),
        Value::Packed(p) => {
            out.write_char('<')?;
            write_path(out, p.values(), atoms)?;
            out.write_char('>')
        }
    }
}

/// Write a path: `eps` when empty, its values joined by `·` otherwise.
pub(crate) fn write_path<W: Write, A: AtomText>(
    out: &mut W,
    values: &[Value],
    atoms: &mut A,
) -> fmt::Result {
    let Some((first, rest)) = values.split_first() else {
        return out.write_str("eps");
    };
    write_value(out, *first, atoms)?;
    for value in rest {
        out.write_str("·")?;
        write_value(out, *value, atoms)?;
    }
    Ok(())
}

/// Write the columns of a tuple joined by `, ` (nothing for the empty tuple).
pub(crate) fn write_args<'a, W: Write, A: AtomText>(
    out: &mut W,
    columns: impl IntoIterator<Item = &'a [Value]>,
    atoms: &mut A,
) -> fmt::Result {
    for (i, values) in columns.into_iter().enumerate() {
        if i > 0 {
            out.write_str(", ")?;
        }
        write_path(out, values, atoms)?;
    }
    Ok(())
}

/// Renders answer rows into a `String`, caching each atom's printed text the
/// first time it appears.  One renderer serves one output; its cache holds
/// only atoms it has printed.
#[derive(Default)]
pub struct Renderer {
    atoms: AtomCache,
}

impl Renderer {
    /// A renderer with an empty atom cache.
    pub fn new() -> Renderer {
        Renderer::default()
    }

    /// Write one fact as `relation(p1, …, pk)`, or the bare `relation` for
    /// the empty tuple.
    pub fn write_tuple(&mut self, out: &mut String, relation: &str, tuple: &[Path]) {
        self.write_fact(out, relation, tuple.iter().map(Path::values));
    }

    fn write_fact<'a>(
        &mut self,
        out: &mut String,
        relation: &str,
        columns: impl ExactSizeIterator<Item = &'a [Value]>,
    ) {
        out.push_str(relation);
        if columns.len() > 0 {
            out.push('(');
            write_args(out, columns, &mut self.atoms).expect("writing to a String cannot fail");
            out.push(')');
        }
    }

    /// Sort the rows of one relation and write each on its own line as
    /// `  relation(p1, …, pk)`, the row format of the `run` and `query`
    /// reports (the bare `relation` for the empty tuple).
    ///
    /// Each row's paths are resolved once to their value slices and the rows
    /// sorted on those, which is [`Path`]'s content order (lexicographic over
    /// values), so the output equals sorting the tuples themselves.  Ties
    /// can only be equal rows, which print identically, so the order of the
    /// output depends on the rows alone.
    ///
    /// # Panics
    /// Panics if the rows do not all have the same arity.
    pub fn write_sorted_rows<'a>(
        &mut self,
        out: &mut String,
        relation: RelName,
        rows: impl IntoIterator<Item = &'a [Path]>,
    ) {
        let mut rows = rows.into_iter().peekable();
        let arity = rows.peek().map_or(0, |row| row.len());
        let mut count = 0;
        let mut columns: Vec<&'static [Value]> = Vec::with_capacity(rows.size_hint().0 * arity);
        for row in rows {
            columns.extend(row.iter().map(Path::values));
            count += 1;
        }
        assert_eq!(
            columns.len(),
            count * arity,
            "rows of one relation share an arity"
        );
        let name = relation.name();
        // Reserve the exact size of the rows, so that a large report is not
        // built by doubling.
        let mut row_len = "  ".len() + name.len() + "\n".len();
        if arity > 0 {
            row_len += "()".len() + ", ".len() * (arity - 1);
        }
        let paths_len: usize = columns.iter().map(|c| self.atoms.path_len(c)).sum();
        let rows_len = count * row_len + paths_len;
        out.reserve(rows_len);
        let end = out.len() + rows_len;
        let mut write_row = |row: &[&'static [Value]]| {
            out.push_str("  ");
            self.write_fact(out, &name, row.iter().copied());
            out.push('\n');
        };
        match arity {
            0 => (0..count).for_each(|_| write_row(&[])),
            // A unary row is its one column: sort the columns in place, with
            // no second vector of row slices (this keeps peak memory down).
            1 => {
                columns.sort_unstable();
                columns
                    .iter()
                    .for_each(|column| write_row(std::slice::from_ref(column)));
            }
            _ => {
                let mut sorted: Vec<&[&'static [Value]]> = columns.chunks_exact(arity).collect();
                sorted.sort_unstable();
                sorted.into_iter().for_each(write_row);
            }
        }
        debug_assert_eq!(out.len(), end, "the reserved size is exact");
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::{path_of, rel};

    fn sorted_rows(relation: &str, rows: &[Vec<Path>]) -> String {
        let mut out = String::new();
        Renderer::new().write_sorted_rows(&mut out, rel(relation), rows.iter().map(Vec::as_slice));
        out
    }

    #[test]
    fn atoms_are_bare_or_quoted() {
        let mut out = String::new();
        for name in [
            "abc_9",
            "",
            "eps",
            "complete order",
            "it's",
            "a·b",
            "a\\",
            "\\'",
        ] {
            write_atom_name(&mut out, name).unwrap();
            out.push(' ');
        }
        assert_eq!(
            out,
            "abc_9 '' 'eps' 'complete order' 'it\\'s' 'a·b' 'a\\\\' '\\\\\\'' "
        );
    }

    #[test]
    fn cached_and_interned_text_agree() {
        let inner = path_of(&["a", "it's"]);
        let path = Path::from_values([Value::atom("eps"), Value::packed(inner)]);
        let mut cached = String::new();
        let mut cache = AtomCache::default();
        for _ in 0..2 {
            write_path(&mut cached, path.values(), &mut cache).unwrap();
        }
        assert_eq!(cached, format!("{path}{path}"));
        assert_eq!(path.to_string(), "'eps'·<a·'it\\'s'>");
    }

    #[test]
    fn path_lengths_match_the_printed_text() {
        let inner = path_of(&["a", "it's", "ε"]);
        let paths = [
            Path::empty(),
            path_of(&["render_len"]),
            Path::from_values([Value::packed(Path::empty())]),
            Path::from_values([Value::atom("eps"), Value::packed(inner), Value::atom("b")]),
        ];
        let mut cache = AtomCache::default();
        for path in paths {
            assert_eq!(
                cache.path_len(path.values()),
                path.to_string().len(),
                "{path}"
            );
        }
    }

    #[test]
    fn rows_are_sorted_by_content_and_written_in_full() {
        let rows = vec![
            vec![path_of(&["render_b"]), Path::empty()],
            vec![path_of(&["render_a", "render_b"]), path_of(&["render_a"])],
            vec![path_of(&["render_a"]), path_of(&["render_b"])],
        ];
        let mut expected: Vec<&Vec<Path>> = rows.iter().collect();
        expected.sort();
        let expected: String = expected
            .iter()
            .map(|row| format!("  Q({}, {})\n", row[0], row[1]))
            .collect();
        assert_eq!(sorted_rows("Q", &rows), expected);
    }

    #[test]
    fn nullary_rows_print_the_bare_relation() {
        assert_eq!(sorted_rows("Z", &[vec![]]), "  Z\n");
        assert_eq!(sorted_rows("Z", &[]), "");
        let mut out = String::new();
        Renderer::new().write_tuple(&mut out, "Z", &[]);
        Renderer::new().write_tuple(&mut out, "Y", &[Path::empty(), path_of(&["a"])]);
        assert_eq!(out, "ZY(eps, a)");
    }
}
