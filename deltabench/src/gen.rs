//! Seeded SQL generators. They model only what a client application knows
//! (which keys it inserted and deleted), never the program's internals, and
//! emit plain SQL text. The same seed always yields the same statements.

use std::collections::HashMap;

/// Groups of the `grp` column in the point workloads (the aggregate view's
/// GROUP BY key).
const POINT_GROUPS: u64 = 100;
/// Rows per seeding INSERT statement.
const SEED_ROWS_PER_STMT: usize = 250;
/// `grp` values per block and rows per `grp` value in the set-wise workload:
/// one block is the ~50 rows one set-oriented statement touches.
const BLOCK_GROUPS: usize = 5;
const ROWS_PER_GROUP: usize = 10;
/// Rows one set-wise block holds.
const BLOCK_ROWS: usize = BLOCK_GROUPS * ROWS_PER_GROUP;
/// Empty blocks at the start, so INSERTs have somewhere to go. DELETEs stop
/// at twice this many empty blocks, which bounds the table's drift to this
/// many blocks either way.
const RESERVE_BLOCKS: usize = 20;

/// splitmix64: a small, fast, seedable generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5eed_de17_a000_0001)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `0.0..1.0`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn pad(&mut self, len: usize) -> String {
        (0..len)
            .map(|_| (b'a' + self.below(26) as u8) as char)
            .collect()
    }
}

/// The DDL every workload table uses.
pub fn create_table_sql(table: &str) -> String {
    format!("CREATE TABLE {table} (id INT PRIMARY KEY, grp INT, val INT, pad VARCHAR)")
}

/// The live keys of one table, with O(1) uniform choice and removal.
#[derive(Debug, Default)]
struct KeySet {
    keys: Vec<i64>,
    pos: HashMap<i64, usize>,
    next: i64,
}

impl KeySet {
    fn insert(&mut self) -> i64 {
        let k = self.next;
        self.next += 1;
        self.pos.insert(k, self.keys.len());
        self.keys.push(k);
        k
    }

    fn pick(&self, rng: &mut Rng) -> Option<i64> {
        if self.keys.is_empty() {
            None
        } else {
            Some(self.keys[rng.below(self.keys.len() as u64) as usize])
        }
    }

    fn remove(&mut self, k: i64) {
        if let Some(i) = self.pos.remove(&k) {
            self.keys.swap_remove(i);
            if let Some(&moved) = self.keys.get(i) {
                self.pos.insert(moved, i);
            }
        }
    }
}

/// Point transactions by primary key over `tables`: 70% UPDATE, 20% INSERT,
/// 10% DELETE, uniform keys, each statement changing exactly one row.
#[derive(Debug)]
pub struct PointGen {
    rng: Rng,
    tables: Vec<(String, KeySet)>,
    pad: usize,
}

impl PointGen {
    pub fn new(seed: u64, tables: &[String], pad: usize) -> PointGen {
        PointGen {
            rng: Rng::new(seed),
            tables: tables
                .iter()
                .map(|t| (t.clone(), KeySet::default()))
                .collect(),
            pad,
        }
    }

    fn row(&mut self, id: i64) -> String {
        let grp = self.rng.below(POINT_GROUPS);
        let val = self.rng.below(1_000_000);
        format!("({id}, {grp}, {val}, '{}')", self.rng.pad(self.pad))
    }

    /// Seeding transactions loading `rows` rows into every table; each
    /// inner vec is one transaction's statements.
    pub fn seed(&mut self, rows: usize) -> Vec<Vec<String>> {
        let mut txns = Vec::new();
        for t in 0..self.tables.len() {
            let mut left = rows;
            while left > 0 {
                let mut txn = Vec::new();
                for _ in 0..4 {
                    let n = left.min(SEED_ROWS_PER_STMT);
                    if n == 0 {
                        break;
                    }
                    left -= n;
                    let values: Vec<String> = (0..n)
                        .map(|_| {
                            let id = self.tables[t].1.insert();
                            self.row(id)
                        })
                        .collect();
                    txn.push(format!(
                        "INSERT INTO {} VALUES {}",
                        self.tables[t].0,
                        values.join(", ")
                    ));
                }
                txns.push(txn);
            }
        }
        txns
    }

    /// One transaction of `stmts` single-row statements.
    pub fn txn(&mut self, stmts: usize) -> Vec<String> {
        (0..stmts).map(|_| self.statement()).collect()
    }

    fn statement(&mut self) -> String {
        let t = self.rng.below(self.tables.len() as u64) as usize;
        let r = self.rng.unit();
        let existing = self.tables[t].1.pick(&mut self.rng);
        let name = self.tables[t].0.clone();
        match existing {
            Some(k) if r < 0.7 => {
                let grp = self.rng.below(POINT_GROUPS);
                let val = self.rng.below(1_000_000);
                format!("UPDATE {name} SET grp = {grp}, val = {val} WHERE id = {k}")
            }
            Some(k) if r >= 0.9 => {
                self.tables[t].1.remove(k);
                format!("DELETE FROM {name} WHERE id = {k}")
            }
            _ => {
                let id = self.tables[t].1.insert();
                format!("INSERT INTO {name} VALUES {}", self.row(id))
            }
        }
    }
}

/// Set-oriented transactions over one table: each is one statement on a
/// block of five `grp` values (~50 rows): 60% UPDATE, 20% DELETE, 20%
/// multi-row INSERT refilling an emptied block, so the table size holds.
#[derive(Debug)]
pub struct SetGen {
    rng: Rng,
    table: String,
    pad: usize,
    full: Vec<usize>,
    empty: Vec<usize>,
    next_id: i64,
}

impl SetGen {
    /// A table of `rows` rows (rounded down to whole blocks).
    pub fn new(seed: u64, table: &str, rows: usize, pad: usize) -> SetGen {
        let blocks = (rows / BLOCK_ROWS).max(1);
        SetGen {
            rng: Rng::new(seed),
            table: table.to_string(),
            pad,
            full: Vec::new(),
            empty: (0..blocks + RESERVE_BLOCKS).rev().collect(),
            next_id: 0,
        }
    }

    fn range(block: usize) -> (usize, usize) {
        let lo = block * BLOCK_GROUPS;
        (lo, lo + BLOCK_GROUPS - 1)
    }

    fn fill(&mut self, block: usize) -> String {
        let (lo, _) = SetGen::range(block);
        let mut values = Vec::with_capacity(BLOCK_ROWS);
        for g in 0..BLOCK_GROUPS {
            for _ in 0..ROWS_PER_GROUP {
                let id = self.next_id;
                self.next_id += 1;
                let val = self.rng.below(1_000_000);
                values.push(format!(
                    "({id}, {}, {val}, '{}')",
                    lo + g,
                    self.rng.pad(self.pad)
                ));
            }
        }
        self.full.push(block);
        format!("INSERT INTO {} VALUES {}", self.table, values.join(", "))
    }

    /// Seeding transactions filling every non-reserve block.
    pub fn seed(&mut self) -> Vec<Vec<String>> {
        let fill = self.empty.len() - RESERVE_BLOCKS;
        let mut stmts = Vec::with_capacity(fill);
        for _ in 0..fill {
            let block = self.empty.pop().expect("a block to fill");
            stmts.push(self.fill(block));
        }
        stmts.chunks(20).map(|c| c.to_vec()).collect()
    }

    /// One set-oriented statement (a transaction of its own) and the rows it
    /// changes.
    pub fn statement(&mut self) -> (String, u64) {
        let r = self.rng.unit();
        if r >= 0.8 && !self.empty.is_empty() {
            let i = self.rng.below(self.empty.len() as u64) as usize;
            let block = self.empty.swap_remove(i);
            return (self.fill(block), BLOCK_ROWS as u64);
        }
        let i = self.rng.below(self.full.len() as u64) as usize;
        let (lo, hi) = SetGen::range(self.full[i]);
        let t = &self.table;
        if (0.6..0.8).contains(&r) && self.empty.len() < 2 * RESERVE_BLOCKS && self.full.len() > 1 {
            self.empty.push(self.full.swap_remove(i));
            (
                format!("DELETE FROM {t} WHERE grp >= {lo} AND grp <= {hi}"),
                BLOCK_ROWS as u64,
            )
        } else {
            let d = 1 + self.rng.below(100);
            (
                format!("UPDATE {t} SET val = val + {d} WHERE grp >= {lo} AND grp <= {hi}"),
                BLOCK_ROWS as u64,
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point_stream(seed: u64) -> Vec<String> {
        let mut g = PointGen::new(seed, &["a".to_string(), "b".to_string()], 8);
        let mut out: Vec<String> = g.seed(20).into_iter().flatten().collect();
        for _ in 0..50 {
            out.extend(g.txn(5));
        }
        out
    }

    fn set_stream(seed: u64) -> Vec<String> {
        let mut g = SetGen::new(seed, "t", 500, 8);
        let mut out: Vec<String> = g.seed().into_iter().flatten().collect();
        out.extend((0..100).map(|_| g.statement().0));
        out
    }

    #[test]
    fn same_seed_same_stream() {
        assert_eq!(point_stream(7), point_stream(7));
        assert_eq!(set_stream(7), set_stream(7));
    }

    #[test]
    fn different_seed_changes_the_stream() {
        assert_ne!(point_stream(7), point_stream(8));
        assert_ne!(set_stream(7), set_stream(8));
    }

    #[test]
    fn point_mix_never_touches_a_missing_key() {
        let mut g = PointGen::new(3, &["a".to_string()], 4);
        g.seed(10);
        let mut live: std::collections::HashSet<i64> = (0..10).collect();
        for _ in 0..2000 {
            let s = g.statement();
            let key = |s: &str| s.rsplit(' ').next().unwrap().parse::<i64>().unwrap();
            if s.starts_with("UPDATE") {
                assert!(live.contains(&key(&s)), "{s}");
            } else if s.starts_with("DELETE") {
                assert!(live.remove(&key(&s)), "{s}");
            } else {
                let id: i64 = s["INSERT INTO a VALUES (".len()..]
                    .split(',')
                    .next()
                    .unwrap()
                    .parse()
                    .unwrap();
                assert!(live.insert(id), "{s}");
            }
        }
    }

    #[test]
    fn set_mix_keeps_the_table_size_steady() {
        let mut g = SetGen::new(5, "t", 2000, 4);
        g.seed();
        let start = g.full.len();
        for _ in 0..5000 {
            g.statement();
        }
        assert!(g.full.len().abs_diff(start) <= RESERVE_BLOCKS);
        assert!(!g.full.is_empty());
    }
}
