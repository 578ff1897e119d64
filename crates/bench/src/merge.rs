//! Merging partitioned bench artifacts.
//!
//! `localias experiment --partition i/N` writes one
//! `localias-bench-experiment/v7` artifact per partition, each carrying
//! its slice's per-module `results` rows. [`merge_partitions`] validates
//! that a set of such artifacts is one complete, disjoint cover of a
//! single seeded corpus — same seed, same partition count, every index
//! present exactly once, every slice the size the partitioning says it
//! must be — and unions them into a single artifact equal in result set
//! to an unpartitioned sweep: rows concatenate in partition order (which
//! *is* stream order, partitions being contiguous ranges), error totals
//! recompute from the rows, wall-clock is the slowest partition (they
//! run concurrently), thread counts sum, and latency histograms merge
//! bucket-by-bucket (the per-partition histograms describe disjoint
//! sample sets, so the merged distribution is exactly the union).

use crate::json::Value;
use crate::{json, ExperimentBench, ModuleResult, PartitionInfo, PhaseTimes};
use localias_corpus::partition_range;
use localias_obs::HistSnapshot;
use std::time::Duration;

/// The experiment schema: the one the merge both consumes and produces.
pub const MERGE_SCHEMA: &str = "localias-bench-experiment/v7";

fn field<'v>(doc: &'v Value, key: &str) -> Result<&'v Value, String> {
    doc.get(key).ok_or_else(|| format!("missing field {key:?}"))
}

fn usize_field(doc: &Value, key: &str) -> Result<usize, String> {
    field(doc, key)?
        .as_usize()
        .ok_or_else(|| format!("field {key:?} is not a non-negative integer"))
}

fn f64_field(doc: &Value, key: &str) -> Result<f64, String> {
    field(doc, key)?
        .as_f64()
        .ok_or_else(|| format!("field {key:?} is not a number"))
}

/// One partition artifact, decoded to the fields the merge needs.
struct Partition {
    info: PartitionInfo,
    seed: u64,
    threads: usize,
    wall: Duration,
    phases: PhaseTimes,
    results: Vec<ModuleResult>,
    hists: Vec<HistSnapshot>,
}

/// Decodes a `hist` block back into snapshots, keeping only the
/// histograms that saw samples (the renderer writes zeros for shape).
fn decode_hists(doc: &Value, label: &str) -> Result<Vec<HistSnapshot>, String> {
    let block = field(doc, "hist").map_err(|e| format!("{label}: {e}"))?;
    let Value::Obj(pairs) = block else {
        return Err(format!("{label}: \"hist\" is not an object"));
    };
    let mut out = Vec::new();
    for (name, v) in pairs {
        let count =
            usize_field(v, "count").map_err(|e| format!("{label}: hist.{name}.{e}"))? as u64;
        if count == 0 {
            continue;
        }
        let u64_of = |key: &str| -> Result<u64, String> {
            field(v, key)
                .and_then(|x| {
                    x.as_u64()
                        .ok_or_else(|| format!("{key} is not a non-negative integer"))
                })
                .map_err(|e| format!("{label}: hist.{name}: {e}"))
        };
        let buckets_doc = field(v, "buckets").map_err(|e| format!("{label}: hist.{name}: {e}"))?;
        let buckets_doc = buckets_doc
            .as_arr()
            .ok_or_else(|| format!("{label}: hist.{name}: \"buckets\" is not an array"))?;
        let mut buckets = Vec::with_capacity(buckets_doc.len());
        for (i, pair) in buckets_doc.iter().enumerate() {
            let cells = pair
                .as_arr()
                .filter(|c| c.len() == 2)
                .ok_or_else(|| format!("{label}: hist.{name}.buckets[{i}] is not a pair"))?;
            let idx = cells[0]
                .as_usize()
                .filter(|&i| i < localias_obs::HIST_BUCKETS)
                .ok_or_else(|| format!("{label}: hist.{name}.buckets[{i}] index out of range"))?;
            let n = cells[1]
                .as_u64()
                .ok_or_else(|| format!("{label}: hist.{name}.buckets[{i}] count not an integer"))?;
            buckets.push((idx, n));
        }
        out.push(HistSnapshot {
            name: name.clone(),
            count,
            sum_ns: u64_of("sum_ns")?,
            min_ns: u64_of("min_ns")?,
            max_ns: u64_of("max_ns")?,
            buckets,
        });
    }
    Ok(out)
}

fn decode(text: &str, label: &str) -> Result<Partition, String> {
    let doc = json::parse(text).map_err(|e| format!("{label}: {e}"))?;
    let schema = field(&doc, "schema")
        .and_then(|v| {
            v.as_str()
                .map(str::to_string)
                .ok_or_else(|| "schema is not a string".into())
        })
        .map_err(|e| format!("{label}: {e}"))?;
    if schema != MERGE_SCHEMA {
        return Err(format!(
            "{label}: schema {schema:?} is not {MERGE_SCHEMA:?} — \
             regenerate the artifact with this binary"
        ));
    }
    let part = field(&doc, "partition").map_err(|e| format!("{label}: {e}"))?;
    if part.is_null() {
        return Err(format!(
            "{label}: not a partition artifact (\"partition\" is null); \
             run the sweep with --partition i/N"
        ));
    }
    let info = PartitionInfo {
        index: usize_field(part, "index").map_err(|e| format!("{label}: partition.{e}"))?,
        count: usize_field(part, "count").map_err(|e| format!("{label}: partition.{e}"))?,
        total: usize_field(part, "total").map_err(|e| format!("{label}: partition.{e}"))?,
    };
    let rows = field(&doc, "results").map_err(|e| format!("{label}: {e}"))?;
    if rows.is_null() {
        return Err(format!(
            "{label}: partition artifact carries no \"results\" rows"
        ));
    }
    let rows = rows
        .as_arr()
        .ok_or_else(|| format!("{label}: \"results\" is not an array"))?;
    let mut results = Vec::with_capacity(rows.len());
    for (i, row) in rows.iter().enumerate() {
        let cells = row
            .as_arr()
            .filter(|c| c.len() == 4)
            .ok_or_else(|| format!("{label}: results[{i}] is not a [name, nc, cf, as] row"))?;
        results.push(ModuleResult {
            name: cells[0]
                .as_str()
                .ok_or_else(|| format!("{label}: results[{i}] name is not a string"))?
                .to_string(),
            no_confine: cells[1]
                .as_usize()
                .ok_or_else(|| format!("{label}: results[{i}] counts must be integers"))?,
            confine: cells[2]
                .as_usize()
                .ok_or_else(|| format!("{label}: results[{i}] counts must be integers"))?,
            all_strong: cells[3]
                .as_usize()
                .ok_or_else(|| format!("{label}: results[{i}] counts must be integers"))?,
        });
    }
    let phases_doc = field(&doc, "phase_cpu_seconds").map_err(|e| format!("{label}: {e}"))?;
    let phases = PhaseTimes {
        parse: Duration::from_secs_f64(f64_field(phases_doc, "parse").unwrap_or(0.0).max(0.0)),
        check: Duration::from_secs_f64(f64_field(phases_doc, "check").unwrap_or(0.0).max(0.0)),
        confine: Duration::from_secs_f64(f64_field(phases_doc, "confine").unwrap_or(0.0).max(0.0)),
    };
    Ok(Partition {
        info,
        seed: field(&doc, "seed")
            .and_then(|v| v.as_u64().ok_or_else(|| "seed is not an integer".into()))
            .map_err(|e| format!("{label}: {e}"))?,
        threads: usize_field(&doc, "threads").map_err(|e| format!("{label}: {e}"))?,
        wall: Duration::from_secs_f64(f64_field(&doc, "wall_seconds")?.max(0.0)),
        phases,
        results,
        hists: decode_hists(&doc, label)?,
    })
}

/// Merges per-partition histogram sets: same-named snapshots union
/// bucket-by-bucket, names unique to one partition pass through. The
/// result is sorted by name, matching a single-process drain.
fn merge_hists(parts: Vec<Vec<HistSnapshot>>) -> Vec<HistSnapshot> {
    let mut merged: Vec<HistSnapshot> = Vec::new();
    for hists in parts {
        for h in hists {
            match merged.iter_mut().find(|m| m.name == h.name) {
                Some(m) => m.merge(&h),
                None => merged.push(h),
            }
        }
    }
    merged.sort_by(|a, b| a.name.cmp(&b.name));
    merged
}

/// Merges per-partition bench JSON documents (as `(label, text)` pairs,
/// the label naming the source for error messages) into one artifact.
///
/// Validation is strict: every artifact must use the current schema,
/// agree on seed, partition count, and corpus total; the indices must
/// cover `0..count` exactly once; and each slice must carry exactly the
/// rows its contiguous range contains. The merged artifact's `results`
/// are therefore the same module-result set, in the same stream order,
/// as a single-process sweep of the whole corpus.
pub fn merge_partitions(docs: &[(String, String)]) -> Result<ExperimentBench, String> {
    if docs.is_empty() {
        return Err("nothing to merge: no artifacts given".into());
    }
    let mut parts = docs
        .iter()
        .map(|(label, text)| decode(text, label))
        .collect::<Result<Vec<_>, _>>()?;

    let first = &parts[0];
    let (seed, count, total) = (first.seed, first.info.count, first.info.total);
    if parts.len() != count {
        return Err(format!(
            "expected {count} partition artifacts (per --partition i/{count}), got {}",
            parts.len()
        ));
    }
    for p in &parts {
        if p.seed != seed {
            return Err(format!(
                "seed mismatch: partition {} has seed {}, partition {} has seed {}",
                first.info.index, seed, p.info.index, p.seed
            ));
        }
        if p.info.count != count || p.info.total != total {
            return Err(format!(
                "partitioning mismatch: {}/{} over {} modules vs {}/{} over {}",
                first.info.index, count, total, p.info.index, p.info.count, p.info.total
            ));
        }
    }
    parts.sort_by_key(|p| p.info.index);
    for (want, p) in parts.iter().enumerate() {
        if p.info.index != want {
            return Err(format!(
                "partition indices must cover 0..{count} exactly once; \
                 found index {} where {want} was expected",
                p.info.index
            ));
        }
        let expected = partition_range(total, p.info.index, count).len();
        if p.results.len() != expected {
            return Err(format!(
                "partition {}/{count} must carry {expected} modules, artifact has {}",
                p.info.index,
                p.results.len()
            ));
        }
    }

    let mut results: Vec<ModuleResult> = Vec::with_capacity(total);
    let mut phases = PhaseTimes::default();
    let mut wall = Duration::ZERO;
    let mut threads = 0usize;
    let mut hist_parts = Vec::with_capacity(parts.len());
    for p in parts {
        phases.accumulate(p.phases);
        wall = wall.max(p.wall);
        threads += p.threads;
        hist_parts.push(p.hists);
        results.extend(p.results);
    }
    let errors = results.iter().fold((0, 0, 0), |(nc, cf, st), r| {
        (nc + r.no_confine, cf + r.confine, st + r.all_strong)
    });
    Ok(ExperimentBench {
        seed,
        modules: results.len(),
        threads,
        wall,
        phases,
        errors,
        potential: results.iter().map(ModuleResult::potential).sum(),
        eliminated: results.iter().map(ModuleResult::eliminated).sum(),
        cache: None,
        profile: None,
        hist: merge_hists(hist_parts),
        partition: None,
        results: Some(results),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{measure_stream_with_cache, CachePolicy, CorpusStream};
    use localias_alias::Backend;
    use std::ops::Range;

    /// An uncached single-threaded sweep of stream positions `range`.
    fn sweep(stream: &CorpusStream, range: Range<usize>) -> (Vec<ModuleResult>, ExperimentBench) {
        let disabled = CachePolicy::Disabled;
        measure_stream_with_cache(stream, range, 1, Backend::Steensgaard, &disabled)
    }

    fn partition_artifact(stream: &CorpusStream, index: usize, count: usize) -> (String, String) {
        let range = stream.partition(index, count);
        let (results, mut bench) = sweep(stream, range);
        bench.partition = Some(PartitionInfo {
            index,
            count,
            total: stream.len(),
        });
        bench.results = Some(results);
        // Each partition observed one synthetic sample, so the merged
        // artifact must carry their bucket-union.
        let sample = 100 * (index as u64 + 1);
        bench.hist = vec![HistSnapshot {
            name: "analyze.module".into(),
            count: 1,
            sum_ns: sample,
            min_ns: sample,
            max_ns: sample,
            buckets: vec![(localias_obs::bucket_index(sample), 1)],
        }];
        (format!("part{index}.json"), bench.to_json())
    }

    #[test]
    fn disjoint_partitions_merge_to_the_full_sweep() {
        let stream = CorpusStream::new(11, 24);
        let docs: Vec<_> = (0..3).map(|i| partition_artifact(&stream, i, 3)).collect();
        let merged = merge_partitions(&docs).unwrap();

        let (full, full_bench) = sweep(&stream, 0..stream.len());
        assert_eq!(merged.modules, full.len());
        assert_eq!(merged.errors, full_bench.errors);
        assert_eq!(merged.potential, full_bench.potential);
        assert_eq!(merged.eliminated, full_bench.eliminated);
        let rows = merged.results.as_ref().unwrap();
        for (got, want) in rows.iter().zip(&full) {
            assert_eq!(got.name, want.name);
            assert_eq!(
                (got.no_confine, got.confine, got.all_strong),
                (want.no_confine, want.confine, want.all_strong)
            );
        }
        // Histograms merged bucket-by-bucket across the partitions: one
        // synthetic sample each of 100, 200, and 300 ns.
        let h = merged
            .hist
            .iter()
            .find(|h| h.name == "analyze.module")
            .unwrap();
        assert_eq!(h.count, 3);
        assert_eq!(h.sum_ns, 600);
        assert_eq!(h.min_ns, 100);
        assert_eq!(h.max_ns, 300);
        assert_eq!(h.buckets.iter().map(|&(_, c)| c).sum::<u64>(), 3);

        // The merged artifact is itself a full (unpartitioned) document.
        let rendered = merged.to_json();
        assert!(rendered.contains("\"partition\": null"));
        assert!(rendered.contains("\"results\": ["));
        assert!(rendered.contains("\"hist\": {"));
    }

    #[test]
    fn merge_order_is_index_order_not_argument_order() {
        let stream = CorpusStream::new(5, 10);
        let mut docs: Vec<_> = (0..2).map(|i| partition_artifact(&stream, i, 2)).collect();
        docs.reverse();
        let merged = merge_partitions(&docs).unwrap();
        let (full, _) = sweep(&stream, 0..stream.len());
        let names: Vec<_> = merged
            .results
            .unwrap()
            .iter()
            .map(|r| r.name.clone())
            .collect();
        let want: Vec<_> = full.iter().map(|r| r.name.clone()).collect();
        assert_eq!(names, want);
    }

    #[test]
    fn merge_rejects_incomplete_or_mismatched_sets() {
        let stream = CorpusStream::new(5, 10);
        let p0 = partition_artifact(&stream, 0, 2);
        let p1 = partition_artifact(&stream, 1, 2);

        let err = merge_partitions(std::slice::from_ref(&p0)).unwrap_err();
        assert!(err.contains("expected 2 partition artifacts"), "{err}");

        let err = merge_partitions(&[p0.clone(), p0.clone()]).unwrap_err();
        assert!(err.contains("exactly once"), "{err}");

        let other_seed = CorpusStream::new(6, 10);
        let q1 = partition_artifact(&other_seed, 1, 2);
        let err = merge_partitions(&[p0.clone(), q1]).unwrap_err();
        assert!(err.contains("seed mismatch"), "{err}");

        let empty: &[(String, String)] = &[];
        assert!(merge_partitions(empty).is_err());

        let err = merge_partitions(&[(p1.0.clone(), "{not json".into()), p1.clone()]).unwrap_err();
        assert!(err.contains("json parse error"), "{err}");

        // A full (unpartitioned) artifact is rejected up front.
        let (_, mut bench) = sweep(&stream, 0..stream.len());
        bench.partition = None;
        bench.results = None;
        let err = merge_partitions(&[("full.json".into(), bench.to_json()), p1]).unwrap_err();
        assert!(err.contains("not a partition artifact"), "{err}");
    }
}
