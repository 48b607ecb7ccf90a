//! Path views defer interning: enumerating every cut of a path as a
//! [`PathView`] adds nothing to the process-wide store until `to_path`.
//!
//! It lives in its own test binary because it measures the store's growth,
//! which the library's unit tests would add to while running alongside it.

use seqdl_core::{path_of, repeat_path, store_stats, Path, PathView};

#[test]
fn path_views_defer_interning_until_to_path() {
    // A unique long parent: enumerating all O(L²) cuts as views must not
    // grow the store with them.
    let p = repeat_path("pview", 64);
    let before = store_stats().distinct_paths;
    let views: Vec<PathView> = (0..=p.len())
        .flat_map(|i| (i..=p.len()).map(move |j| (i, j)))
        .map(|(i, j)| PathView::cut(p, i, j))
        .collect();
    assert!(views.len() > 2000);
    // Cutting, reading, comparing, and hashing views registers nothing.
    for v in &views {
        assert_eq!(v.len(), v.values().len());
        let _ = format!("{v}");
    }
    let grown = store_stats().distinct_paths - before;
    assert_eq!(grown, 0, "views interned {grown} paths");
    // Content equality across distinct parents and ranges.
    let q = path_of(&["zz", "pview", "pview"]);
    assert_eq!(PathView::cut(p, 1, 3), PathView::cut(q, 1, 3));
    assert_ne!(PathView::cut(p, 0, 2), PathView::cut(q, 0, 2));
    // Full-range and empty views resolve to existing interned paths.
    assert_eq!(PathView::from(p).to_path(), p);
    assert_eq!(PathView::cut(p, 2, 2).to_path(), Path::empty());
    // Proper cuts intern on demand and agree with subpath.
    assert_eq!(PathView::cut(p, 1, 3).to_path(), p.subpath(1, 3));
}
