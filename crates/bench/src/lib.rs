//! What the bench bins share: the provenance every `BENCH_*.json` opens
//! with, in `perfbench`'s shape — the commit checked out and an FNV digest
//! of the sources measured — so a row names the code it measured. Run the
//! bins from the repository root.

#![warn(missing_docs)]

use sekitei_model::codec::Fnv1a;

/// The provenance object: `{"commit": "…", "source_digest": "…"}`.
pub fn provenance_json() -> String {
    format!("{{\"commit\": \"{}\", \"source_digest\": \"{}\"}}", commit(), source_digest())
}

/// The commit checked out, read from `.git` in the working directory
/// (no git process, nothing read outside the checkout); "unknown" when
/// the checkout is not a repository.
fn commit() -> String {
    let read = |p: &str| std::fs::read_to_string(format!(".git/{p}")).ok();
    let head = read("HEAD").unwrap_or_default();
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return if head.is_empty() { "unknown".into() } else { head.to_string() };
    };
    read(reference)
        .map(|h| h.trim().to_string())
        .or_else(|| {
            read("packed-refs")?.lines().find_map(|l| {
                let (hash, name) = l.split_once(' ')?;
                (name == reference).then(|| hash.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

/// FNV-1a digest of the sources the rows measure: every `.rs` and `.toml`
/// file under `crates/`, and `Cargo.lock`, each path then its bytes, in
/// path order. It names the code measured where git is unavailable.
fn source_digest() -> String {
    fn walk(dir: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else { return };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                out.push(p);
            }
        }
    }
    let mut files = vec![std::path::PathBuf::from("Cargo.lock")];
    walk("crates".as_ref(), &mut files);
    files.sort();
    let mut h = Fnv1a::new();
    for f in &files {
        h.write(f.to_string_lossy().as_bytes());
        h.write(&std::fs::read(f).unwrap_or_default());
    }
    format!("{:016x}", h.finish())
}
