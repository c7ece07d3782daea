//! Seeded inputs. The server only ever sees what these functions build:
//! scripts to `load` and request payloads.
//!
//! Every workload keeps the *amount* of work per run independent of the
//! seed, so runs under different seeds measure the same thing; the seed
//! decides which concrete inputs carry that work.

use std::fmt::Write as _;

use starling_fuzz::gen::{generate, GenConfig};
use starling_sql::RuleDef;
use starling_storage::Catalog;

use crate::util::Rng;

/// Workload sizes: the full benchmark, or the tiny self-check.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    /// Designs per overload class in the explore pool.
    pub designs_per_class: usize,
    /// Rules of the §6.4 refinement program.
    pub refine_rules: usize,
    /// Violating pairs left uncertified after setup.
    pub refine_tail: usize,
    /// Rows of the writer's persisted table.
    pub account_rows: usize,
    /// Rows of the reader's reference table.
    pub ref_rows: usize,
    /// Distinct reader probes.
    pub probes: usize,
}

impl Sizes {
    pub fn full() -> Sizes {
        Sizes {
            designs_per_class: 3,
            refine_rules: 1_000,
            refine_tail: 1_000,
            account_rows: 20_000,
            ref_rows: 100_000,
            probes: 16,
        }
    }

    pub fn tiny() -> Sizes {
        Sizes {
            designs_per_class: 1,
            refine_rules: 24,
            refine_tail: 12,
            account_rows: 300,
            ref_rows: 1_000,
            probes: 4,
        }
    }
}

// ---------------------------------------------------------------- explore

/// The state band every seeded explore must land in, full and tiny.
pub const BAND: (usize, usize) = (1_000, 4_000);
pub const TINY_BAND: (usize, usize) = (400, 1_100);

/// Overload classes `(line index, overloaded load)` of the §5 network.
/// Which line trips decides how far the deletion cascade reaches, and the
/// load decides how many shedding steps interleave with it. These three
/// land in [`BAND`] (1,017, 1,818 and 2,132 states) and appear equally
/// often, so the median falls inside the middle class rather than on a
/// class boundary, and p90 inside the top one. Line 12 at load 140 (3,762
/// states) is in the band too but is left out: its root-to-final paths
/// exceed the default path budget, so the server rightly answers
/// `inconclusive`. The tiny three land in [`TINY_BAND`].
const CLASSES: [(usize, i64); 3] = [(2, 120), (1, 140), (2, 130)];
const TINY_CLASSES: [(usize, i64); 3] = [(0, 120), (1, 120), (2, 120)];

/// One seeded power-network design and its probe.
#[derive(Clone, Debug)]
pub struct Design {
    /// Setup plus the §5 rules.
    pub script: String,
    /// The user transition: one line's load jumps above the trip limit.
    pub probe: String,
}

/// The explore pool: every overload class `per_class` times, each with
/// seeded line loads and node voltages, in seeded order. Base loads stay
/// at or under the shedding bound (90), so only the probed line cascades.
pub fn designs(seed: u64, tiny: bool, per_class: usize) -> Vec<Design> {
    let mut rng = Rng::new(seed);
    let rules = starling_workloads::power_network::workload().rules;
    let classes: &[(usize, i64)] = if tiny { &TINY_CLASSES } else { &CLASSES };
    let mut out = Vec::new();
    for &(line, load) in classes {
        for _ in 0..per_class {
            let mut s = String::from(
                "create table node (nid int, voltage int, feeder int);\n\
                 create table line (lid int, src int, dst int, state int, load int);\n\
                 create table conn (cid int, nid int, lid int);\n",
            );
            for nid in 1..=4 {
                let volt = 60 + 10 * rng.below(8);
                let _ = writeln!(
                    s,
                    "insert into node values ({nid}, {volt}, {});",
                    i32::from(nid == 1)
                );
            }
            for l in 0..3 {
                let base = 20 + 10 * rng.below(8);
                let _ = writeln!(
                    s,
                    "insert into line values ({}, {}, {}, 1, {base});",
                    10 + l,
                    l + 1,
                    l + 2
                );
            }
            for (cid, (nid, lid)) in [(1, 10), (2, 10), (2, 11), (3, 11), (3, 12), (4, 12)]
                .into_iter()
                .enumerate()
            {
                let _ = writeln!(s, "insert into conn values ({}, {nid}, {lid});", 100 + cid);
            }
            s.push_str(&rules);
            out.push(Design {
                script: s,
                probe: format!("update line set load = {load} where lid = {};", 10 + line),
            });
        }
    }
    rng.shuffle(&mut out);
    out
}

// ----------------------------------------------------------------- refine

/// The refinement program's generator seed. Pinned: programs from
/// different generator seeds differ up to 3x in violating pairs and 2x in
/// per-step cost, which would drown any change in the seed's noise. The
/// run seed picks the uncertified tail and the step schedule instead.
pub const PROGRAM_SEED: u64 = 42;

/// Every `ORDER_EVERY`-th refinement step orders its pair instead of
/// certifying it (and so pays a recompile).
pub const ORDER_EVERY: usize = 4;

/// The §6.4 program: a `starling_fuzz` program of `rules` rules.
pub struct RefineProgram {
    pub script: String,
    pub defs: Vec<RuleDef>,
    pub catalog: Catalog,
}

pub fn refine_program(rules: usize) -> RefineProgram {
    let case = generate(PROGRAM_SEED, &GenConfig::scaled(rules));
    RefineProgram {
        script: case.script(),
        catalog: case.catalog(),
        defs: case.defs,
    }
}

/// A pair of rule names.
pub type Pair = (String, String);

/// Splits the violating pairs into the bulk certified during setup and a
/// seeded tail of `tail` pairs refined one per timed step. `violations`
/// gives each pair's number of violations. The tail is drawn from the
/// pairs behind a single violation (others only if those run out), so
/// every seed leaves the same number of violations, and about the same
/// report, for the steps to re-analyze.
pub fn split_tail(
    seed: u64,
    pairs: Vec<Pair>,
    violations: &[usize],
    tail: usize,
) -> (Vec<Pair>, Vec<Pair>) {
    let mut rng = Rng::new(seed ^ 0x7a11);
    let mut order: Vec<(Pair, usize)> = pairs.into_iter().zip(violations.iter().copied()).collect();
    rng.shuffle(&mut order);
    // Stable: single-violation pairs first, each group in seeded order.
    order.sort_by_key(|&(_, v)| v != 1);
    let bulk = order.split_off(tail.min(order.len()));
    let strip = |v: Vec<(Pair, usize)>| v.into_iter().map(|(p, _)| p).collect();
    (strip(bulk), strip(order))
}

/// The rule index of a generated rule name (`r17` → 17).
pub fn rule_index(name: &str) -> usize {
    name.trim_start_matches('r').parse().unwrap_or(usize::MAX)
}

// ------------------------------------------------------------------ mixed

/// Slots of the writer's trimmed audit log: the log keeps the last write
/// per slot, so its size never changes.
pub const AUDIT_SLOTS: usize = 64;

/// The writer's persisted program: `account` with `rows` rows and an
/// audit rule writing a fixed-size log.
pub fn writer_script(rows: usize) -> String {
    let mut s = String::with_capacity(rows * 40 + 1024);
    s.push_str(
        "create table account (id int, balance int);\n\
         create table audit_log (slot int, id int, balance int);\n",
    );
    for i in 0..rows {
        let _ = writeln!(s, "insert into account values ({i}, {});", (i * 37) % 1000);
    }
    for slot in 0..AUDIT_SLOTS {
        let _ = writeln!(s, "insert into audit_log values ({slot}, -1, 0);");
    }
    let _ = writeln!(
        s,
        "create rule audit on account when updated(balance) then \
           delete from audit_log where slot in (select id % {AUDIT_SLOTS} from new_updated); \
           insert into audit_log select id % {AUDIT_SLOTS}, id, balance from new_updated end;"
    );
    s
}

/// The writer's `k`-th commit: a single-row update by seeded key.
pub fn writer_update(rng: &mut Rng, rows: usize) -> String {
    let id = rng.below(rows as u64);
    let bal = rng.below(100_000);
    format!("update account set balance = {bal} where id = {id};")
}

/// The reader's program: a `rows`-row reference table that never changes
/// and rules whose conditions take different evaluation paths over it —
/// an equi-join (hash-join probe), an offset join (`b.k = i.k + 1`, no
/// join key), and a single-table filter (vectorized pushdown).
pub fn reader_script(rows: usize) -> String {
    let mut s = String::with_capacity(rows * 32 + 2048);
    s.push_str(
        "create table ref (k int, v int);\n\
         create table evt (k int, v int);\n\
         create table hit (k int, v int);\n\
         create table near (k int);\n\
         create table hot (k int);\n",
    );
    for i in 0..rows {
        let _ = writeln!(s, "insert into ref values ({}, {});", 2 * i, i % 1000);
    }
    s.push_str(
        "create rule match_eq on evt when inserted \
           if exists (select * from ref b, inserted i where b.k = i.k) \
           then insert into hit select k, v from inserted precedes match_next end;\n\
         create rule match_next on evt when inserted \
           if exists (select * from ref b, inserted i where b.k = i.k + 1) \
           then insert into near select k from inserted precedes match_hot end;\n\
         create rule match_hot on evt when inserted \
           if exists (select * from ref b where b.v = 999) \
           then insert into hot select k from inserted end;\n",
    );
    s
}

/// `n` distinct seeded reader probes; half land on a reference key.
pub fn reader_probes(seed: u64, rows: usize, n: usize) -> Vec<String> {
    let mut rng = Rng::new(seed ^ 0x9ead);
    (0..n)
        .map(|i| {
            let k = 2 * rng.below(rows as u64) + (i as u64 % 2);
            format!("insert into evt values ({k}, {});", rng.below(1000))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_are_a_function_of_the_seed() {
        let a = designs(7, false, 3);
        let b = designs(7, false, 3);
        assert_eq!(a.len(), CLASSES.len() * 3);
        assert!(a
            .iter()
            .zip(&b)
            .all(|(x, y)| x.script == y.script && x.probe == y.probe));
        let c = designs(8, false, 3);
        assert!(a.iter().zip(&c).any(|(x, y)| x.script != y.script));
        assert_eq!(reader_probes(3, 100, 4), reader_probes(3, 100, 4));
    }

    #[test]
    fn every_class_appears_equally_often() {
        let d = designs(11, false, 3);
        for &(line, load) in &CLASSES {
            let probe = format!("update line set load = {load} where lid = {};", 10 + line);
            assert_eq!(d.iter().filter(|x| x.probe == probe).count(), 3);
        }
    }

    #[test]
    fn tail_split_keeps_every_pair_once() {
        let pairs: Vec<_> = (0..10)
            .map(|i| (format!("r{i}"), format!("r{}", i + 1)))
            .collect();
        let violations: Vec<usize> = (0..10).map(|i| 1 + usize::from(i % 3 == 0)).collect();
        let (bulk, tail) = split_tail(5, pairs.clone(), &violations, 3);
        assert_eq!(tail.len(), 3);
        // The tail comes from the single-violation pairs.
        assert!(tail.iter().all(|p| violations[rule_index(&p.0)] == 1));
        assert_ne!(split_tail(6, pairs.clone(), &violations, 3).1, tail);
        let mut all: Vec<_> = bulk.into_iter().chain(tail).collect();
        all.sort();
        let mut want = pairs;
        want.sort();
        assert_eq!(all, want);
        assert_eq!(rule_index("r17"), 17);
    }
}
