//! `query`: a seeded mix of CrowdSQL and crowd-Datalog requests against
//! one session, one request at a time.
//!
//! The catalog holds `products` (a CROWD `category` column and a `maker`
//! string) and `brands`. Requests rotate through a selective CROWD-column
//! fill, a `CROWDEQUAL` join, a `CROWDORDER … LIMIT` top-k and, every
//! fourth request, a Datalog program whose `@crowd` predicate is resolved
//! through `OracleResolver`. Filled cells are written back by the session
//! and reused by later requests over the same rows.
//!
//! The ground truth behind every crowd task is generated here, so the
//! benchmark computes each request's correct result itself and compares.

use std::cell::Cell;
use std::time::Instant;

use crowdkit_core::answer::AnswerValue;
use crowdkit_core::error::Result;
use crowdkit_core::ids::TaskId;
use crowdkit_core::task::{Task, TaskKind};
use crowdkit_core::traits::CrowdOracle;
use crowdkit_datalog::{parse_program, Const, Engine, OracleResolver};
use crowdkit_sim::latency::LatencyModel;
use crowdkit_sim::population::mixes;
use crowdkit_sim::{PlatformBuilder, SimulatedCrowd};
use crowdkit_sql::exec::SimTaskFactory;
use crowdkit_sql::{QueryOpts, Session, TaskFactory, Value};

use crate::probe::{span, Layers, ProbedOracle, Tally};
use crate::workload::{derive, Outcome, Workload};

const CATEGORIES: [&str; 5] = ["phone", "laptop", "tablet", "camera", "watch"];
/// Rows a fill request covers.
const FILL_ROWS: usize = 8;
/// Products and brands a join request crosses.
const JOIN_PRODUCTS: usize = 3;
const JOIN_BRANDS: usize = 4;
/// Rows a top-k request ranks, and how many it keeps.
const TOPK_ROWS: usize = 8;
const TOPK_K: usize = 3;
/// Answers bought per crowd question.
const VOTES: u32 = 3;
/// Crowd questions per platform round-trip.
const BATCH: usize = 8;

/// A small deterministic generator for the request mix (splitmix64).
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self.0.wrapping_add(1);
        (derive(self.0, 0) % n.max(1) as u64) as usize
    }
}

/// Hands out task ids that are unique across the whole job.
///
/// The SQL executor and the Datalog resolver number their tasks from 0 in
/// every query, and the platform never asks a worker twice about one task
/// id. On one shared platform, reused ids would drain the worker pool
/// after a few dozen requests; a client posting new questions gives each
/// a new id.
#[derive(Default)]
struct TaskIds(Cell<u64>);

impl TaskIds {
    fn next(&self) -> TaskId {
        let id = self.0.get();
        self.0.set(id + 1);
        TaskId::new(id)
    }
}

/// A `TaskFactory` that builds `inner`'s tasks under job-wide ids.
struct Renumbered<'a, F> {
    inner: F,
    ids: &'a TaskIds,
}

impl<F: TaskFactory> TaskFactory for Renumbered<'_, F> {
    fn fill_task(&mut self, _: TaskId, table: &str, row: &[Value], column: &str) -> Task {
        self.inner.fill_task(self.ids.next(), table, row, column)
    }

    fn equal_task(&mut self, _: TaskId, left: &Value, right: &Value) -> Task {
        self.inner.equal_task(self.ids.next(), left, right)
    }

    fn compare_task(&mut self, _: TaskId, left: &Value, right: &Value) -> Task {
        self.inner.compare_task(self.ids.next(), left, right)
    }
}

enum Kind {
    Sql(String),
    Datalog(String),
}

struct Request {
    kind: Kind,
    /// Whether row order is part of the result (top-k).
    ordered: bool,
    /// The correct result, one canonical string per row, sorted unless
    /// `ordered`.
    expect: Vec<String>,
}

/// Inputs of the `query` workload.
pub struct Query {
    /// Category index per product.
    category: Vec<usize>,
    /// Brand index per product.
    maker: Vec<usize>,
    /// Hidden popularity per product; higher ranks first.
    score: Vec<u64>,
    brands: usize,
    workers: usize,
    requests: Vec<Request>,
    population_seed: u64,
    platform_seed: u64,
}

fn brand_name(b: usize) -> String {
    format!("maker{b}")
}

/// How a product's `maker` cell spells its brand: a different surface
/// form, so matching it to `brands.bname` is a real crowd judgement.
fn maker_cell(b: usize) -> String {
    format!("Maker{b} Ltd")
}

fn canon_brand(v: &str) -> String {
    v.trim().to_lowercase().trim_end_matches(" ltd").to_owned()
}

fn product_of_name(v: &Value) -> usize {
    v.display_raw()
        .trim_start_matches("item")
        .parse()
        .expect("product names are item<id>")
}

fn sql_row(row: &[Value]) -> String {
    row.iter()
        .map(Value::display_raw)
        .collect::<Vec<_>>()
        .join("|")
}

impl Query {
    /// `products` rows, `brands` brands, `requests` requests, a reliable
    /// crowd of `workers`.
    pub fn new(seed: u64, products: usize, brands: usize, requests: usize, workers: usize) -> Self {
        let mut rng = Rng(derive(seed, 21));
        let category: Vec<usize> = (0..products).map(|_| rng.below(CATEGORIES.len())).collect();
        let maker: Vec<usize> = (0..products).map(|_| rng.below(brands)).collect();
        let score: Vec<u64> = (0..products as u64)
            .map(|i| derive(seed ^ 0x5C0E, i))
            .collect();
        let mut by_brand = vec![Vec::new(); brands];
        for (p, &b) in maker.iter().enumerate() {
            by_brand[b].push(p);
        }
        let mut q = Self {
            category,
            maker,
            score,
            brands,
            workers,
            requests: Vec::with_capacity(requests),
            population_seed: derive(seed, 22),
            platform_seed: derive(seed, 23),
        };
        for i in 0..requests {
            let mut req = match i % 4 {
                0 => q.fill_request(&mut rng),
                1 => q.join_request(&mut rng),
                2 => q.topk_request(&mut rng),
                _ => q.datalog_request(&mut rng, &by_brand),
            };
            if !req.ordered {
                req.expect.sort();
            }
            q.requests.push(req);
        }
        q
    }

    /// Selective fill over a hot half of the table, so later requests
    /// overlap rows earlier ones filled.
    fn fill_request(&self, rng: &mut Rng) -> Request {
        let hot = (self.category.len() / 2).max(FILL_ROWS + 1);
        let lo = rng.below(hot - FILL_ROWS);
        let c = rng.below(CATEGORIES.len());
        let hi = lo + FILL_ROWS;
        let sql = format!(
            "SELECT id, category FROM products WHERE id >= {lo} AND id < {hi} AND category = '{}'",
            CATEGORIES[c]
        );
        let expect = (lo..hi)
            .filter(|&p| self.category[p] == c)
            .map(|p| format!("{p}|{}", CATEGORIES[c]))
            .collect();
        Request {
            kind: Kind::Sql(sql),
            ordered: false,
            expect,
        }
    }

    /// Crowd join of a few products against a window of brands that
    /// usually holds the first product's brand.
    fn join_request(&self, rng: &mut Rng) -> Request {
        let lo = rng.below(self.maker.len() - JOIN_PRODUCTS);
        let hi = lo + JOIN_PRODUCTS;
        let b_lo = self.maker[lo]
            .saturating_sub(rng.below(JOIN_BRANDS))
            .min(self.brands - JOIN_BRANDS);
        let b_hi = b_lo + JOIN_BRANDS;
        let sql = format!(
            "SELECT products.id, brands.bname FROM products, brands \
             WHERE CROWDEQUAL(products.maker, brands.bname) \
             AND products.id >= {lo} AND products.id < {hi} \
             AND brands.bid >= {b_lo} AND brands.bid < {b_hi}"
        );
        let expect = (lo..hi)
            .filter(|&p| (b_lo..b_hi).contains(&self.maker[p]))
            .map(|p| format!("{p}|{}", brand_name(self.maker[p])))
            .collect();
        Request {
            kind: Kind::Sql(sql),
            ordered: false,
            expect,
        }
    }

    /// Crowd top-k over a window of products.
    fn topk_request(&self, rng: &mut Rng) -> Request {
        let lo = rng.below(self.score.len() - TOPK_ROWS);
        let hi = lo + TOPK_ROWS;
        let sql = format!(
            "SELECT name FROM products WHERE id >= {lo} AND id < {hi} \
             ORDER BY CROWDORDER(name) LIMIT {TOPK_K}"
        );
        let mut ranked: Vec<usize> = (lo..hi).collect();
        ranked.sort_by(|&a, &b| self.score[b].cmp(&self.score[a]));
        let expect = ranked[..TOPK_K]
            .iter()
            .map(|p| format!("item{p}"))
            .collect();
        Request {
            kind: Kind::Sql(sql),
            ordered: true,
            expect,
        }
    }

    /// A Datalog program over two products of one brand and two others.
    /// `maker_of` is used by two rules, so the engine's per-binding fetch
    /// cache absorbs the second use.
    fn datalog_request(&self, rng: &mut Rng, by_brand: &[Vec<usize>]) -> Request {
        let mut picked: Vec<usize> = Vec::with_capacity(4);
        let b = rng.below(self.brands);
        let same = &by_brand[b];
        if same.len() >= 2 {
            let first = rng.below(same.len());
            picked.push(same[first]);
            picked.push(same[(first + 1 + rng.below(same.len() - 1)) % same.len()]);
        }
        while picked.len() < 4 {
            let p = rng.below(self.maker.len());
            if !picked.contains(&p) {
                picked.push(p);
            }
        }
        let facts: String = picked.iter().map(|p| format!("product({p}). ")).collect();
        let program = format!(
            "{facts}\n@crowd maker_of/2.\n\
             made_by(P, M) :- product(P), maker_of(P, M).\n\
             same_maker(P, Q) :- made_by(P, M), made_by(Q, M), P < Q.\n\
             branded(P) :- product(P), maker_of(P, M), M != \"unknown\".\n"
        );
        let mut expect = Vec::new();
        for &p in &picked {
            expect.push(format!("made_by({p}|{})", brand_name(self.maker[p])));
            expect.push(format!("branded({p})"));
            for &q in &picked {
                if p < q && self.maker[p] == self.maker[q] {
                    expect.push(format!("same_maker({p}|{q})"));
                }
            }
        }
        Request {
            kind: Kind::Datalog(program),
            ordered: false,
            expect,
        }
    }

    fn run_sql(
        &self,
        session: &Session,
        sql: &str,
        oracle: &dyn CrowdOracle,
        ids: &TaskIds,
        tr: Option<&Layers>,
    ) -> Result<Vec<String>> {
        let sim = SimTaskFactory {
            fill_truth: |_: &str, row: &[Value], _: &str| match row[0] {
                Value::Int(p) => CATEGORIES[self.category[p as usize]].to_owned(),
                _ => String::new(),
            },
            equal_truth: |l: &Value, r: &Value| {
                canon_brand(&l.display_raw()) == canon_brand(&r.display_raw())
            },
            left_wins_truth: |l: &Value, r: &Value| {
                self.score[product_of_name(l)] > self.score[product_of_name(r)]
            },
        };
        let mut factory = Renumbered { inner: sim, ids };
        let opts = QueryOpts::new().votes(VOTES).batch(BATCH);
        let (rows, stats) = span(
            tr,
            |l| &l.sql,
            || session.query_crowd(sql, oracle, &mut factory, &opts),
        )?;
        if let Some(l) = tr {
            let mut t = l.sql_stats.get();
            t.questions += stats.questions;
            t.rounds += stats.rounds;
            t.cells_filled += stats.cells_filled;
            t.equal_checks += stats.equal_checks;
            t.comparisons += stats.comparisons;
            t.spend += stats.spend;
            t.predicted_spend += stats.predicted_spend;
            l.sql_stats.set(t);
        }
        Ok(rows.iter().map(|r| sql_row(r)).collect())
    }

    fn run_datalog(
        &self,
        text: &str,
        oracle: &dyn CrowdOracle,
        ids: &TaskIds,
        tr: Option<&Layers>,
    ) -> Result<Vec<String>> {
        let make_task = |_: TaskId, _pred: &str, bound: &[(usize, Const)], _free: usize| {
            let p = match bound.first() {
                Some((_, Const::Int(p))) => *p as usize,
                _ => 0,
            };
            Task::new(
                ids.next(),
                TaskKind::OpenText,
                format!("who makes item{p}?"),
            )
            .with_truth(AnswerValue::Text(brand_name(self.maker[p])))
        };
        let mut resolver = OracleResolver::new(oracle, VOTES, make_task);
        let (db, stats) = span(
            tr,
            |l| &l.datalog,
            || Engine::new(parse_program(text)?)?.run(&mut resolver),
        )?;
        if let Some(l) = tr {
            let mut t = l.datalog_stats.get();
            t.fetches += stats.fetches as u64;
            t.fetch_hits += stats.fetch_cache_hits as u64;
            t.iterations += stats.iterations as u64;
            l.datalog_stats.set(t);
        }
        let mut rows = Vec::new();
        for pred in ["made_by", "same_maker", "branded"] {
            for row in db.relation(pred) {
                let args: Vec<String> = row.iter().map(Const::display_raw).collect();
                rows.push(format!("{pred}({})", args.join("|")));
            }
        }
        rows.sort();
        Ok(rows)
    }
}

/// A loaded session and the platform requests run against.
pub struct QueryEnv {
    session: Session,
    crowd: SimulatedCrowd,
}

impl Workload for Query {
    type Env = QueryEnv;

    fn setup(&self, threads: usize, tr: Option<&Layers>) -> Result<QueryEnv> {
        let crowd = PlatformBuilder::new(mixes::reliable(self.workers, self.population_seed))
            .seed(self.platform_seed)
            .latency(LatencyModel::human_default())
            .threads(threads)
            .build();
        let session = Session::new();
        let ddl = |sql: &str| match tr {
            Some(l) => l.leaf(&l.ddl, || session.execute_ddl(sql)),
            None => session.execute_ddl(sql),
        };
        ddl("CREATE TABLE products (id INT, name TEXT, maker TEXT, category CROWD TEXT)")?;
        ddl("CREATE TABLE brands (bid INT, bname TEXT)")?;
        for (p, &b) in self.maker.iter().enumerate() {
            ddl(&format!(
                "INSERT INTO products VALUES ({p}, 'item{p}', '{}', NULL)",
                maker_cell(b)
            ))?;
        }
        for b in 0..self.brands {
            ddl(&format!(
                "INSERT INTO brands VALUES ({b}, '{}')",
                brand_name(b)
            ))?;
        }
        Ok(QueryEnv { session, crowd })
    }

    fn job(
        &self,
        env: &QueryEnv,
        tr: Option<&Layers>,
        latencies_ms: &mut Vec<f64>,
    ) -> Result<Outcome> {
        // Every answer the requests ask for is tallied, so answers the
        // executor absorbs as shortfalls count as failed units.
        let tally = Tally::default();
        let timed = tr.map(|l| ProbedOracle::timed(&env.crowd, l));
        let oracle = match &timed {
            Some(t) => ProbedOracle::counting(t as &dyn CrowdOracle, &tally),
            None => ProbedOracle::counting(&env.crowd as &dyn CrowdOracle, &tally),
        };
        let ids = TaskIds::default();
        let mut correct = 0u64;
        let mut failed = 0u64;
        for req in &self.requests {
            let start = Instant::now();
            let got = match &req.kind {
                Kind::Sql(sql) => self.run_sql(&env.session, sql, &oracle, &ids, tr),
                Kind::Datalog(text) => self.run_datalog(text, &oracle, &ids, tr),
            };
            latencies_ms.push(start.elapsed().as_secs_f64() * 1e3);
            match got {
                Ok(mut rows) => {
                    if !req.ordered {
                        rows.sort();
                    }
                    correct += u64::from(rows == req.expect);
                }
                Err(_) => failed += 1,
            }
        }
        Ok(Outcome {
            attempted: self.requests.len() as u64 + tally.asked(),
            failed: failed + tally.missing(),
            answers: env.crowd.answers_delivered(),
            spend: env.crowd.ledger().grand_total(),
            correct,
            judged: self.requests.len() as u64,
            makespan_sim_s: env.crowd.now(),
        })
    }
}
