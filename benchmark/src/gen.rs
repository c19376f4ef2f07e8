//! Seeded inputs: the op streams the clients issue and the payloads
//! they write. The program under test sees only the generated
//! addresses and buffers; the same seed gives the same streams.

/// SplitMix64: small, fast, and good enough to pick addresses.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// A generator for one stream of one run: `stream` names the
    /// traffic, `lane` the client and the leg.
    pub fn for_stream(seed: u64, stream: u64, lane: u64) -> Rng {
        let mut r = Rng(seed ^ stream.rotate_left(24) ^ lane.rotate_left(48));
        r.next_u64();
        Rng(r.next_u64())
    }

    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (multiply-shift; the bias is below 2^-32 for
    /// the ranges used here).
    #[inline]
    pub fn below(&mut self, n: usize) -> usize {
        (((self.next_u64() >> 32) * n as u64) >> 32) as usize
    }
}

/// Payload pool: `FILLS` seeded buffers of one unit each, stored twice
/// over so that any run of up to `FILLS` consecutive fills is one
/// contiguous slice — a multi-block write needs no assembly copy.
pub const FILLS: usize = 256;

pub struct Pool {
    unit: usize,
    bytes: Vec<u8>,
}

impl Pool {
    pub fn new(seed: u64, unit: usize) -> Pool {
        assert!(unit.is_multiple_of(8));
        let mut rng = Rng::for_stream(seed, 0x706f_6f6c, unit as u64);
        let mut bytes = Vec::with_capacity(2 * FILLS * unit);
        for _ in 0..FILLS * unit / 8 {
            bytes.extend_from_slice(&rng.next_u64().to_le_bytes());
        }
        bytes.extend_from_within(..);
        Pool { unit, bytes }
    }

    /// The payload of `blocks` consecutive blocks whose first block
    /// carries fill `first`; block `i` of the run carries fill
    /// `first + i` (mod [`FILLS`]).
    pub fn run(&self, first: u8, blocks: usize) -> &[u8] {
        assert!(blocks <= FILLS);
        &self.bytes[first as usize * self.unit..(first as usize + blocks) * self.unit]
    }

    /// Bytes per block.
    pub fn unit(&self) -> usize {
        self.unit
    }

    pub fn block(&self, fill: u8) -> &[u8] {
        self.run(fill, 1)
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Read,
    Write,
    Flush,
}

/// One client call: `blocks` blocks starting at `start`; a write stores
/// fills `fill, fill + 1, …`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Op {
    pub kind: Kind,
    pub start: usize,
    pub blocks: usize,
    pub fill: u8,
}

/// The shape of a client's traffic.
#[derive(Clone, Copy, Debug)]
pub enum Traffic {
    /// Calls of `span` blocks at random starts, `read_pct` % reads.
    /// With `hot_pct` > 0, that share of the starts falls in the first
    /// hundredth of the client's range and the rest anywhere in it.
    /// With `flush_every` = n, every n-th call is a `flush`.
    Mixed { read_pct: u32, span: usize, hot_pct: u32, flush_every: usize },
    /// Whole passes over the client's range in `span`-block calls: one
    /// write pass, a `flush`, then `read_passes` read passes.
    Passes { span: usize, read_passes: usize },
}

/// A client's op stream over blocks `lo..hi`.
pub struct OpGen {
    rng: Rng,
    traffic: Traffic,
    lo: usize,
    hi: usize,
    issued: usize,
}

impl OpGen {
    pub fn new(rng: Rng, traffic: Traffic, lo: usize, hi: usize) -> OpGen {
        let span = match traffic {
            Traffic::Mixed { span, .. } | Traffic::Passes { span, .. } => span,
        };
        assert!((1..=FILLS).contains(&span) && hi - lo >= 100 * span, "range too small");
        OpGen { rng, traffic, lo, hi, issued: 0 }
    }

    /// Calls in one repetition of the traffic's pattern: a round is a
    /// whole number of these, so every round does the same work.
    #[cfg(test)]
    pub fn period(traffic: Traffic, blocks: usize) -> usize {
        match traffic {
            Traffic::Mixed { flush_every, .. } => flush_every.max(1),
            Traffic::Passes { span, read_passes } => blocks.div_ceil(span) * (1 + read_passes) + 1,
        }
    }

    pub fn next_op(&mut self) -> Op {
        let i = self.issued;
        self.issued += 1;
        let len = self.hi - self.lo;
        match self.traffic {
            Traffic::Mixed { read_pct, span, hot_pct, flush_every } => {
                if flush_every > 0 && (i + 1).is_multiple_of(flush_every) {
                    return Op { kind: Kind::Flush, start: 0, blocks: 0, fill: 0 };
                }
                let r = self.rng.next_u64();
                let kind = if (r & 0xffff) * 100 < read_pct as u64 * 0x10000 {
                    Kind::Read
                } else {
                    Kind::Write
                };
                let hot = ((r >> 16) & 0xffff) * 100 < hot_pct as u64 * 0x10000;
                let range = if hot { len / 100 } else { len };
                let start = self.lo + self.rng.below(range - span + 1);
                Op { kind, start, blocks: span, fill: (r >> 56) as u8 }
            }
            Traffic::Passes { span, read_passes } => {
                let per_pass = len.div_ceil(span);
                let at = i % (per_pass * (1 + read_passes) + 1);
                if at == per_pass {
                    return Op { kind: Kind::Flush, start: 0, blocks: 0, fill: 0 };
                }
                let (kind, idx) = if at < per_pass {
                    (Kind::Write, at)
                } else {
                    (Kind::Read, (at - per_pass - 1) % per_pass)
                };
                let start = self.lo + idx * span;
                let fill = if kind == Kind::Write { self.rng.next_u64() as u8 } else { 0 };
                Op { kind, start, blocks: span.min(self.hi - start), fill }
            }
        }
    }

    /// Order-sensitive hash of the next `n` ops (harness self-test).
    #[cfg(test)]
    pub fn stream_hash(mut self, n: usize) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for _ in 0..n {
            let op = self.next_op();
            for word in [op.kind as u64, op.start as u64, op.blocks as u64, op.fill as u64] {
                h = (h ^ word).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_runs_wrap_without_copying() {
        let pool = Pool::new(5, 64);
        let run = pool.run(250, 12);
        assert_eq!(run.len(), 12 * 64);
        assert_eq!(&run[..64], pool.block(250));
        assert_eq!(&run[6 * 64..7 * 64], pool.block(0));
        assert_eq!(&run[11 * 64..], pool.block(5));
        assert_ne!(pool.block(1), pool.block(2));
        assert_eq!(Pool::new(5, 64).run(0, FILLS), pool.run(0, FILLS));
    }

    #[test]
    fn mixed_traffic_respects_mix_range_and_flush_cadence() {
        let traffic = Traffic::Mixed { read_pct: 70, span: 16, hot_pct: 90, flush_every: 1000 };
        let mut g = OpGen::new(Rng::for_stream(1, 2, 3), traffic, 5000, 25_000);
        let (mut reads, mut hot, mut calls) = (0, 0, 0);
        for i in 0..100_000 {
            let op = g.next_op();
            if (i + 1) % 1000 == 0 {
                assert_eq!(op.kind, Kind::Flush);
                continue;
            }
            assert!(op.start >= 5000 && op.start + op.blocks <= 25_000 && op.blocks == 16);
            calls += 1;
            reads += (op.kind == Kind::Read) as usize;
            hot += (op.start + op.blocks <= 5000 + 200) as usize;
        }
        assert!((reads as f64 / calls as f64 - 0.70).abs() < 0.01);
        assert!((hot as f64 / calls as f64 - 0.90).abs() < 0.01);
    }

    #[test]
    fn passes_cover_the_range_in_order() {
        let traffic = Traffic::Passes { span: 24, read_passes: 2 };
        let mut g = OpGen::new(Rng::for_stream(1, 2, 3), traffic, 0, 2410);
        let period = OpGen::period(traffic, 2410);
        assert_eq!(period, 101 * 3 + 1);
        for _ in 0..2 {
            let ops: Vec<Op> = (0..period).map(|_| g.next_op()).collect();
            for (pass, kind) in [(0, Kind::Write), (1, Kind::Read), (2, Kind::Read)] {
                let skip = pass * 101 + (pass > 0) as usize;
                let mut at = 0;
                for op in &ops[skip..skip + 101] {
                    assert_eq!((op.kind, op.start), (kind, at));
                    at += op.blocks;
                }
                assert_eq!(at, 2410);
            }
            assert_eq!(ops[101].kind, Kind::Flush);
        }
    }
}
