//! Reading and writing KONECT-style edge lists.
//!
//! The paper's datasets come from KONECT, whose bipartite format is one
//! edge per line: `upper lower [weight]`, whitespace-separated, with `%`
//! or `#` comment lines and 1-based vertex ids. This module parses that
//! format (both 0- and 1-based) and writes it back deterministically.
//!
//! Vertex ids are untrusted input, and a graph allocates every vertex
//! of a layer up to its highest id. So [`read_edgelist`] bounds each
//! layer by the input's size: a file of `m` data lines may declare at
//! most `64·m + 65,536` vertices per layer. A
//! two-line file naming vertex 3·10⁹ is a parse error, not a 12 GB
//! allocation.

use crate::builder::{BuildError, DuplicatePolicy, GraphBuilder};
use crate::graph::BipartiteGraph;
use crate::Weight;
use std::fmt;
use std::io::{self, BufRead, Write};
use std::path::Path;

/// Errors from [`read_edgelist`].
#[derive(Debug)]
pub enum EdgeListError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// A line could not be parsed; carries the 1-based line number.
    Parse { line: usize, message: String },
    /// Graph assembly failed (duplicate edge, NaN weight, overflow).
    Build(BuildError),
}

impl fmt::Display for EdgeListError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EdgeListError::Io(e) => write!(f, "i/o error: {e}"),
            EdgeListError::Parse { line, message } => {
                write!(f, "parse error on line {line}: {message}")
            }
            EdgeListError::Build(e) => write!(f, "build error: {e}"),
        }
    }
}

impl std::error::Error for EdgeListError {}

impl From<io::Error> for EdgeListError {
    fn from(e: io::Error) -> Self {
        EdgeListError::Io(e)
    }
}

impl From<BuildError> for EdgeListError {
    fn from(e: BuildError) -> Self {
        EdgeListError::Build(e)
    }
}

/// Options controlling edge-list parsing.
#[derive(Debug, Clone)]
pub struct ReadOptions {
    /// Subtract 1 from every vertex id (KONECT files are 1-based).
    pub one_based: bool,
    /// Weight assigned to edges whose line has no weight column.
    pub default_weight: Weight,
    /// How to resolve duplicate `(upper, lower)` pairs.
    pub duplicates: DuplicatePolicy,
}

impl Default for ReadOptions {
    fn default() -> Self {
        ReadOptions {
            one_based: false,
            default_weight: 1.0,
            duplicates: DuplicatePolicy::Error,
        }
    }
}

/// Vertices per data line a layer may grow by.
const LAYER_VERTICES_PER_LINE: usize = 64;

/// Layer size every edge list may reach regardless of its length.
const LAYER_VERTICES_SLACK: usize = 65_536;

/// The most vertices [`read_edgelist`] accepts in one layer of an input
/// with `data_lines` data lines: `64·data_lines + 65,536`.
fn max_layer_size(data_lines: usize) -> usize {
    LAYER_VERTICES_PER_LINE
        .saturating_mul(data_lines)
        .saturating_add(LAYER_VERTICES_SLACK)
}

/// The highest id seen in one layer: `(0-based id, id as written,
/// 1-based line)`.
type Widest = Option<(usize, usize, usize)>;

/// Parses an edge list from any reader.
///
/// Lines starting with `%` or `#` (after trimming) and blank lines are
/// skipped. Each data line is `upper lower [weight]`. A weight must be
/// a finite number: `inf`, `-inf`, `infinity`, an overflowing literal
/// such as `1e999`, and `NaN` are [`EdgeListError::Parse`] errors
/// (`invalid weight`) naming their line.
///
/// A graph allocates every vertex of a layer up to its highest id, so an
/// input of `m` data lines may declare at most `64·m + 65,536` vertices
/// per layer. Real inputs number their vertices densely and stay far
/// below that bound; an id beyond it is an [`EdgeListError::Parse`]
/// error naming its line, raised before the graph is built.
pub fn read_edgelist<R: BufRead>(
    reader: R,
    opts: &ReadOptions,
) -> Result<BipartiteGraph, EdgeListError> {
    let mut b = GraphBuilder::with_policy(opts.duplicates);
    let mut data_lines = 0usize;
    let mut widest: [Widest; 2] = [None, None];
    for (lineno, line) in reader.lines().enumerate() {
        let line = line?;
        let t = line.trim();
        if t.is_empty() || t.starts_with('%') || t.starts_with('#') {
            continue;
        }
        data_lines += 1;
        let mut it = t.split_whitespace();
        let parse_id = |tok: Option<&str>, what: &str| -> Result<(usize, usize), EdgeListError> {
            let tok = tok.ok_or_else(|| EdgeListError::Parse {
                line: lineno + 1,
                message: format!("missing {what} column"),
            })?;
            let raw: usize = tok.parse().map_err(|_| EdgeListError::Parse {
                line: lineno + 1,
                message: format!("invalid {what} id {tok:?}"),
            })?;
            let id = if opts.one_based {
                raw.checked_sub(1).ok_or_else(|| EdgeListError::Parse {
                    line: lineno + 1,
                    message: format!("{what} id 0 in a 1-based file"),
                })?
            } else {
                raw
            };
            // Vertex ids are u32 and a layer holds ids 0..=id.
            if id >= u32::MAX as usize {
                return Err(EdgeListError::Parse {
                    line: lineno + 1,
                    message: format!("{what} id {tok} is out of range (layer size must fit u32)"),
                });
            }
            Ok((id, raw))
        };
        let (u, raw_u) = parse_id(it.next(), "upper")?;
        let (l, raw_l) = parse_id(it.next(), "lower")?;
        for (layer, id, raw) in [(0, u, raw_u), (1, l, raw_l)] {
            if widest[layer].is_none_or(|(top, _, _)| id > top) {
                widest[layer] = Some((id, raw, lineno + 1));
            }
        }
        let w = match it.next() {
            Some(tok) => tok
                .parse::<Weight>()
                .ok()
                .filter(|w| w.is_finite())
                .ok_or_else(|| EdgeListError::Parse {
                    line: lineno + 1,
                    message: format!("invalid weight {tok:?}"),
                })?,
            None => opts.default_weight,
        };
        b.add_edge(u, l, w);
    }
    let bound = max_layer_size(data_lines);
    for (what, top) in ["upper", "lower"].into_iter().zip(widest) {
        if let Some((id, raw, line)) = top.filter(|&(id, _, _)| id >= bound) {
            return Err(EdgeListError::Parse {
                line,
                message: format!(
                    "{what} id {raw} needs a layer of {} vertices, over the bound of {bound} \
                     for {data_lines} data lines ({LAYER_VERTICES_PER_LINE} per line + \
                     {LAYER_VERTICES_SLACK})",
                    id + 1
                ),
            });
        }
    }
    Ok(b.build()?)
}

/// Reads an edge list from a file path.
pub fn read_edgelist_file<P: AsRef<Path>>(
    path: P,
    opts: &ReadOptions,
) -> Result<BipartiteGraph, EdgeListError> {
    let file = std::fs::File::open(path)?;
    read_edgelist(io::BufReader::new(file), opts)
}

/// Writes `g` as a 0-based `upper lower weight` TSV, one edge per line in
/// edge-id order, preceded by a `%` header comment.
pub fn write_edgelist<W: Write>(g: &BipartiteGraph, mut out: W) -> io::Result<()> {
    writeln!(
        out,
        "% bipartite edge list: |U|={} |L|={} |E|={}",
        g.n_upper(),
        g.n_lower(),
        g.n_edges()
    )?;
    for e in g.edge_ids() {
        let (u, l) = g.endpoints(e);
        writeln!(
            out,
            "{}\t{}\t{}",
            g.local_index(u),
            g.local_index(l),
            g.weight(e)
        )?;
    }
    Ok(())
}

/// Writes `g` to a file path via [`write_edgelist`].
pub fn write_edgelist_file<P: AsRef<Path>>(g: &BipartiteGraph, path: P) -> io::Result<()> {
    let file = std::fs::File::create(path)?;
    write_edgelist(g, io::BufWriter::new(file))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_basic() {
        let data = "% comment\n0 0 2.5\n0 1 1.0\n1 1\n";
        let g = read_edgelist(data.as_bytes(), &ReadOptions::default()).unwrap();
        assert_eq!(g.n_edges(), 3);
        assert_eq!(g.n_upper(), 2);
        assert_eq!(g.n_lower(), 2);
        let e = g.find_edge(g.upper(1), g.lower(1)).unwrap();
        assert_eq!(g.weight(e), 1.0); // default
    }

    #[test]
    fn parses_one_based() {
        let data = "1 1 3\n2 1 4\n";
        let opts = ReadOptions {
            one_based: true,
            ..Default::default()
        };
        let g = read_edgelist(data.as_bytes(), &opts).unwrap();
        assert_eq!(g.n_upper(), 2);
        assert_eq!(g.n_lower(), 1);
    }

    #[test]
    fn rejects_zero_in_one_based() {
        let data = "0 1 3\n";
        let opts = ReadOptions {
            one_based: true,
            ..Default::default()
        };
        let err = read_edgelist(data.as_bytes(), &opts).unwrap_err();
        assert!(matches!(err, EdgeListError::Parse { line: 1, .. }));
    }

    #[test]
    fn rejects_garbage() {
        let err = read_edgelist("0 x 1\n".as_bytes(), &ReadOptions::default()).unwrap_err();
        assert!(matches!(err, EdgeListError::Parse { line: 1, .. }));
        let err = read_edgelist("0 1 abc\n".as_bytes(), &ReadOptions::default()).unwrap_err();
        assert!(matches!(err, EdgeListError::Parse { line: 1, .. }));
        let err = read_edgelist("0\n".as_bytes(), &ReadOptions::default()).unwrap_err();
        assert!(matches!(err, EdgeListError::Parse { line: 1, .. }));
    }

    #[test]
    fn rejects_non_finite_weights() {
        // Each parses as ±∞ or NaN; an infinite weight would reach JSON
        // replies as `"min_weight":inf`, which is not JSON.
        for tok in ["inf", "-inf", "infinity", "1e999", "NaN"] {
            let data = format!("0 0 1\n0 1 {tok}\n1 0 1\n");
            let err = read_edgelist(data.as_bytes(), &ReadOptions::default()).unwrap_err();
            let EdgeListError::Parse { line, message } = &err else {
                panic!("{tok}: expected a parse error, got {err}");
            };
            assert_eq!(*line, 2, "{tok}");
            assert!(message.contains("invalid weight"), "{tok}: {message}");
        }
        // A finite weight in the same position loads.
        let g = read_edgelist(
            "0 0 1\n0 1 1e300\n1 0 1\n".as_bytes(),
            &ReadOptions::default(),
        )
        .unwrap();
        assert_eq!(
            g.weight(g.find_edge(g.upper(0), g.lower(1)).unwrap()),
            1e300
        );
    }

    #[test]
    fn rejects_ids_beyond_u32() {
        // 2^32 used to alias vertex 0; u32::MAX used to wrap the layer
        // size and panic in the builder.
        for data in ["0 0\n4294967296 1\n1 0\n", "0 0 1\n4294967295 1 1\n"] {
            let err = read_edgelist(data.as_bytes(), &ReadOptions::default()).unwrap_err();
            assert!(
                matches!(err, EdgeListError::Parse { line: 2, .. }),
                "{data:?}: {err}"
            );
        }
        // The largest in-range id passes the id check but not the
        // layer bound of a one-line file.
        let g = read_edgelist("0 4294967294 1\n".as_bytes(), &ReadOptions::default());
        assert!(matches!(g, Err(EdgeListError::Parse { line: 1, .. })));
    }

    #[test]
    fn a_huge_id_in_a_short_file_is_rejected_before_building() {
        let data = "0 0 1\n3000000000 1 1\n";
        let err = read_edgelist(data.as_bytes(), &ReadOptions::default()).unwrap_err();
        let EdgeListError::Parse { line, message } = &err else {
            panic!("expected a parse error, got {err}");
        };
        assert_eq!(*line, 2);
        assert!(message.contains("upper id 3000000000"), "{message}");
        assert!(
            message.contains(&max_layer_size(2).to_string()),
            "{message}"
        );
        // A huge lower id is caught the same way, at its own line.
        let data = "% header\n0 3000000000 1\n1 0 1\n";
        let err = read_edgelist(data.as_bytes(), &ReadOptions::default()).unwrap_err();
        assert!(matches!(err, EdgeListError::Parse { line: 2, .. }), "{err}");
    }

    #[test]
    fn a_sparse_file_within_the_bound_parses() {
        // Two data lines may reach ids up to 64·2 + 65,536 − 1.
        let top = max_layer_size(2) - 1;
        let data = format!("0 0 1\n{top} {top} 2\n");
        let g = read_edgelist(data.as_bytes(), &ReadOptions::default()).unwrap();
        assert_eq!(
            (g.n_upper(), g.n_lower(), g.n_edges()),
            (top + 1, top + 1, 2)
        );
        // One more vertex is over it.
        let data = format!("0 0 1\n{} 0 2\n", top + 1);
        let err = read_edgelist(data.as_bytes(), &ReadOptions::default()).unwrap_err();
        assert!(matches!(err, EdgeListError::Parse { line: 2, .. }), "{err}");
        // One-based ids are bounded after the shift.
        let opts = ReadOptions {
            one_based: true,
            ..Default::default()
        };
        let data = format!("1 1 1\n{} 1 2\n", top + 1);
        assert_eq!(
            read_edgelist(data.as_bytes(), &opts).unwrap().n_upper(),
            top + 1
        );
    }

    #[test]
    fn skips_comments_and_blanks() {
        let data = "# hash comment\n\n% percent comment\n0 0 1\n";
        let g = read_edgelist(data.as_bytes(), &ReadOptions::default()).unwrap();
        assert_eq!(g.n_edges(), 1);
    }

    #[test]
    fn roundtrip() {
        let data = "0 0 2.5\n0 1 1\n1 1 7\n3 2 4.25\n";
        let g = read_edgelist(data.as_bytes(), &ReadOptions::default()).unwrap();
        let mut buf = Vec::new();
        write_edgelist(&g, &mut buf).unwrap();
        let g2 = read_edgelist(buf.as_slice(), &ReadOptions::default()).unwrap();
        assert_eq!(g.n_edges(), g2.n_edges());
        assert_eq!(g.n_upper(), g2.n_upper());
        assert_eq!(g.n_lower(), g2.n_lower());
        for e in g.edge_ids() {
            let (u, l) = g.endpoints(e);
            let e2 = g2.find_edge(u, l).expect("edge survives roundtrip");
            assert_eq!(g.weight(e), g2.weight(e2));
        }
    }

    #[test]
    fn duplicate_policy_respected() {
        let data = "0 0 1\n0 0 9\n";
        let opts = ReadOptions {
            duplicates: DuplicatePolicy::KeepMax,
            ..Default::default()
        };
        let g = read_edgelist(data.as_bytes(), &opts).unwrap();
        assert_eq!(g.n_edges(), 1);
        assert_eq!(g.weight(crate::EdgeId(0)), 9.0);
    }
}
