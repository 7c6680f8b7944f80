//! Per-layer unit costs and the modelled split of host time.
//!
//! A unit cost is the uncontended host time of one call to a layer's public
//! function on the input shapes the engine uses (64-byte lines, 8-child
//! tree nodes, the Table 1 metadata cache). Multiplying per-op counts from
//! the layers' public statistics by these costs gives a modelled split of
//! each op's host time; what the model does not explain is reported as
//! controller glue.

use crate::stats::fast;
use crate::Outcome;
use amnt_core::StatsSnapshot;
use amnt_nvm::NvmStats;
use amnt_workloads::WorkloadModel;
use std::hint::black_box;
use std::time::Instant;

/// Median ns per call of each layer function.
#[derive(Debug, Clone, Copy, Default)]
pub struct UnitCosts {
    pub mac64: f64,
    pub mac64_batch8_per_mac: f64,
    pub sha256_64: f64,
    pub aes_block: f64,
    pub ctr_line: f64,
    pub compute_node: f64,
    pub touched_node: f64,
    pub node_mac: f64,
    pub cache_access: f64,
    pub cache_fill: f64,
    pub nvm_read: f64,
    pub nvm_write: f64,
    pub tracegen: f64,
    pub translate: f64,
}

/// Uncontended ns per call of `f` ([`crate::stats::fast`] over
/// repetitions of `calls` calls), after one untimed repetition.
fn unit_ns(calls: usize, mut f: impl FnMut()) -> f64 {
    const REPS: usize = 10;
    let mut per_call = Vec::with_capacity(REPS);
    for rep in 0..=REPS {
        let t = Instant::now();
        for _ in 0..calls {
            f();
        }
        if rep > 0 {
            per_call.push(t.elapsed().as_nanos() as f64 / calls as f64);
        }
    }
    fast(&per_call)
}

/// Measures every unit cost; `models` are the workload's trace models
/// (trace generation cost depends on the model).
pub fn measure(models: &[WorkloadModel]) -> UnitCosts {
    use amnt_bmt::{Bmt, BmtGeometry, BmtHasher, CounterBlock, NodeId};
    use amnt_cache::{CacheConfig, SetAssocCache};
    use amnt_crypto::{mac64_batch, sha256, Aes128, CtrEngine, HmacSha256, DATA_MAC_MSG_LEN};
    use amnt_nvm::{Nvm, NvmConfig};
    use amnt_os::{AllocPolicy, MemoryManager};
    use amnt_workloads::TraceGen;

    let key = b"midsummer-integrity-hmac-key-32b";
    let hmac = HmacSha256::new(key);
    let msg = [0x5Au8; DATA_MAC_MSG_LEN];
    let line = [0x11u8; 64];
    let items: [(&HmacSha256, &[u8]); 8] = [(&hmac, &msg[..]); 8];
    let aes = Aes128::new(b"midsummer-ctr-k!");
    let mut block = [0xABu8; 16];
    let ctr = CtrEngine::new(b"midsummer-ctr-k!");

    let geometry = BmtGeometry::new(1 << 30).expect("1 GiB geometry");
    let bmt = Bmt::new(geometry, key);
    let mut nvm = Nvm::new(NvmConfig::gib(2));
    for i in 0..8u64 {
        let mut c = CounterBlock::new();
        c.increment(i as usize);
        bmt.write_counter(&mut nvm, i, &c).expect("counter write");
    }
    let bottom = NodeId {
        level: bmt.geometry().bottom_level(),
        index: 0,
    };
    let hasher = BmtHasher::new(key);

    // The crash_recover footprint shape on its 2 TiB geometry: one written
    // counter under each bottom node of 16 counter frames.
    let wide = Bmt::new(BmtGeometry::new(2 << 40).expect("2 TiB geometry"), key);
    let mut wide_nvm = Nvm::new(NvmConfig {
        capacity_bytes: wide.geometry().total_size().next_multiple_of(4096),
        ..NvmConfig::paper_default()
    });
    for frame in 0..16u64 {
        for k in 0..8u64 {
            let mut c = CounterBlock::new();
            c.increment(0);
            wide.write_counter(&mut wide_nvm, frame * 4096 + k * 8, &c)
                .expect("counter write");
        }
    }
    let touched_nodes = wide.build_touched(&mut wide_nvm).expect("build").1 as f64;

    let mut cache = SetAssocCache::new(CacheConfig::new(64 * 1024, 8, 64)).expect("cache");
    for i in 0..512u64 {
        cache.fill(i * 64, false);
    }
    let mut fill_cache = SetAssocCache::new(CacheConfig::new(64 * 1024, 8, 64)).expect("cache");

    let mut dev = Nvm::new(NvmConfig::gib(1));
    for i in 0..64u64 {
        dev.write_block(i * 64, &line).expect("nvm write");
    }

    let mut mm = MemoryManager::new(1 << 18, AllocPolicy::Standard);
    for page in 0..64u64 {
        mm.translate(1, page * 4096).expect("map");
    }

    let mut i = 0u64;
    let mut next = move || {
        i = i.wrapping_add(1);
        i
    };
    let mut costs = UnitCosts {
        mac64: unit_ns(2_000, || {
            black_box(hmac.mac64(black_box(&msg)));
        }),
        mac64_batch8_per_mac: unit_ns(500, || {
            black_box(mac64_batch(black_box(&items)));
        }) / 8.0,
        sha256_64: unit_ns(2_000, || {
            black_box(sha256(black_box(&line)));
        }),
        aes_block: unit_ns(5_000, || aes.encrypt_block(black_box(&mut block))),
        ctr_line: unit_ns(1_000, || {
            black_box(ctr.encrypt_block(black_box(0x1000), 5, 3, black_box(&line)));
        }),
        compute_node: unit_ns(200, || {
            black_box(bmt.compute_node(&mut nvm, bottom).expect("compute"));
        }),
        touched_node: unit_ns(3, || {
            black_box(wide.build_touched(&mut wide_nvm).expect("build"));
        }) / touched_nodes,
        node_mac: unit_ns(2_000, || {
            black_box(hasher.node_mac(black_box(&line), bottom));
        }),
        cache_access: unit_ns(50_000, || {
            black_box(cache.access(black_box((next() % 512) * 64), false));
        }),
        cache_fill: unit_ns(50_000, || {
            black_box(fill_cache.fill(black_box((next() % 4096) * 64), false));
        }),
        nvm_read: unit_ns(20_000, || {
            black_box(
                dev.read_block(black_box((next() % 64) * 64))
                    .expect("nvm read"),
            );
        }),
        nvm_write: unit_ns(20_000, || {
            dev.write_block(black_box((next() % 64) * 64), &line)
                .expect("nvm write");
        }),
        translate: unit_ns(50_000, || {
            black_box(
                mm.translate(1, black_box((next() % 64) * 4096))
                    .expect("translate"),
            );
        }),
        tracegen: 0.0,
    };
    if !models.is_empty() {
        const EVENTS: usize = 20_000;
        let mut round = 0usize;
        costs.tracegen = unit_ns(1, || {
            let model = &models[round % models.len()];
            round += 1;
            black_box(TraceGen::new(model, round as u64, EVENTS as u64).count());
        }) / EVENTS as f64;
    }
    costs
}

impl UnitCosts {
    /// Writes the unit costs as per-layer metrics.
    pub fn report(&self, out: &mut Outcome) {
        out.set("crypto.mac64_ns", self.mac64);
        out.set("crypto.mac64_batch8_ns_per_mac", self.mac64_batch8_per_mac);
        out.set("crypto.sha256_64B_ns", self.sha256_64);
        out.set("crypto.aes_block_ns", self.aes_block);
        out.set("crypto.ctr_line_ns", self.ctr_line);
        out.set("bmt.compute_node_ns", self.compute_node);
        out.set("bmt.touched_node_ns", self.touched_node);
        out.set("bmt.node_mac_ns", self.node_mac);
        out.set("cache.access_ns", self.cache_access);
        out.set("cache.fill_ns", self.cache_fill);
        out.set("nvm.read_block_ns", self.nvm_read);
        out.set("nvm.write_block_ns", self.nvm_write);
        out.set("workloads.tracegen_ns_per_access", self.tracegen);
        out.set("os.translate_ns", self.translate);
    }
}

/// Engine statistics summed over one or more engines (sim cells,
/// protocols) for the deterministic count prefix of a run.
#[derive(Debug, Default, Clone, Copy)]
pub struct EngineTotals {
    pub data_reads: u64,
    pub data_writes: u64,
    pub hashes: u64,
    pub metadata_fetches: u64,
    pub persist_writes: u64,
    pub posted_writes: u64,
    pub counter_overflows: u64,
    pub subtree_hits: u64,
    pub subtree_misses: u64,
    pub subtree_transitions: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub evictions: u64,
    pub dirty_evictions: u64,
    pub queue_stall_cycles: u64,
    pub bank_wait_cycles: u64,
    pub nvm_reads: u64,
    pub nvm_writes: u64,
    pub nvm_bytes_written: u64,
    pub resident_frames: u64,
}

impl EngineTotals {
    /// Adds one engine's statistics (since its last reset) and device
    /// traffic.
    pub fn add(&mut self, snap: &StatsSnapshot, nvm: &NvmStats, resident_frames: usize) {
        let c = &snap.controller;
        let m = &snap.metadata_cache;
        let t = &snap.timeline;
        self.data_reads += c.data_reads;
        self.data_writes += c.data_writes;
        self.hashes += c.hashes;
        self.metadata_fetches += c.metadata_fetches;
        self.persist_writes += c.persist_writes;
        self.posted_writes += c.posted_writes;
        self.counter_overflows += c.counter_overflows;
        self.subtree_hits += c.subtree_hits;
        self.subtree_misses += c.subtree_misses;
        self.subtree_transitions += c.subtree_transitions;
        self.cache_hits += m.hits;
        self.cache_misses += m.misses;
        self.evictions += m.evictions;
        self.dirty_evictions += m.dirty_evictions;
        self.queue_stall_cycles += t.queue_stall_cycles;
        self.bank_wait_cycles += t.bank_wait_cycles;
        self.nvm_reads += nvm.reads;
        self.nvm_writes += nvm.writes;
        self.nvm_bytes_written += nvm.bytes_written;
        self.resident_frames += resident_frames as u64;
    }

    /// Reports the per-op engine counts over `ops` operations (all
    /// deterministic) and returns the split-model inputs.
    pub fn report(&self, out: &mut Outcome, ops: f64) -> OpCounts {
        let per = |v: u64| v as f64 / ops;
        out.fixed("controller.hashes_per_op", per(self.hashes));
        out.fixed(
            "controller.metadata_fetches_per_op",
            per(self.metadata_fetches),
        );
        out.fixed("controller.persist_writes_per_op", per(self.persist_writes));
        out.fixed("controller.posted_writes_per_op", per(self.posted_writes));
        out.fixed(
            "controller.counter_overflows_per_kop",
            per(self.counter_overflows) * 1e3,
        );
        let probes = self.cache_hits + self.cache_misses;
        out.fixed(
            "cache.metadata_hit_rate",
            ratio_or_one(self.cache_hits, probes),
        );
        out.fixed("cache.evictions_per_op", per(self.evictions));
        out.fixed("cache.dirty_evictions_per_op", per(self.dirty_evictions));
        out.fixed("nvm.reads_per_op", per(self.nvm_reads));
        out.fixed("nvm.writes_per_op", per(self.nvm_writes));
        out.fixed("nvm.bytes_written_per_op", per(self.nvm_bytes_written));
        out.fixed("nvm.resident_frames", self.resident_frames as f64);
        let elections = self.subtree_hits + self.subtree_misses;
        out.fixed(
            "amnt.subtree_hit_rate",
            ratio_or_one(self.subtree_hits, elections),
        );
        let kwrites = self.data_writes as f64 / 1e3;
        let per_kwrite = if kwrites > 0.0 {
            self.subtree_transitions as f64 / kwrites
        } else {
            0.0
        };
        out.fixed("amnt.transitions_per_kwrite", per_kwrite);
        out.fixed(
            "timeline.queue_stall_cycles_per_op",
            per(self.queue_stall_cycles),
        );
        out.fixed(
            "timeline.bank_wait_cycles_per_op",
            per(self.bank_wait_cycles),
        );
        OpCounts {
            hashes: per(self.hashes),
            cache_accesses: per(probes),
            cache_fills: per(self.cache_misses),
            nvm_reads: per(self.nvm_reads),
            nvm_writes: per(self.nvm_writes),
            ..OpCounts::default()
        }
    }
}

fn ratio_or_one(num: u64, den: u64) -> f64 {
    if den == 0 {
        1.0
    } else {
        num as f64 / den as f64
    }
}

/// Per-op work counts that feed the modelled split. All deterministic.
#[derive(Debug, Clone, Copy, Default)]
pub struct OpCounts {
    /// Engine MACs (`ControllerStats::hashes`).
    pub hashes: f64,
    /// Metadata-cache probes.
    pub cache_accesses: f64,
    /// Metadata-cache fills (misses).
    pub cache_fills: f64,
    /// Device block reads outside BMT node computation.
    pub nvm_reads: f64,
    /// Device block writes.
    pub nvm_writes: f64,
    /// BMT nodes recomputed (recovery and audit walks).
    pub bmt_nodes: f64,
    /// Simulated L1/L2/L3 probes.
    pub sim_cache_accesses: f64,
    /// Trace events generated.
    pub tracegen_events: f64,
    /// Virtual-to-physical translations.
    pub translations: f64,
}

/// Reports the modelled split of `measured_ns` (untraced host ns per op)
/// across layers, and the residual as controller glue.
pub fn report_split(out: &mut Outcome, costs: &UnitCosts, n: &OpCounts, measured_ns: f64) {
    // The engine counts one hash per line encryption ("pad generation
    // amortised"), so hashes x MAC cost covers the CTR work as well.
    let crypto = n.hashes * costs.mac64;
    let bmt = n.bmt_nodes * costs.touched_node;
    let cache = n.cache_accesses * costs.cache_access + n.cache_fills * costs.cache_fill;
    let nvm = n.nvm_reads * costs.nvm_read + n.nvm_writes * costs.nvm_write;
    let sim = n.sim_cache_accesses * costs.cache_access;
    let workloads = n.tracegen_events * costs.tracegen;
    let os = n.translations * costs.translate;
    let glue = measured_ns - (crypto + bmt + cache + nvm + sim + workloads + os);
    let share = |v: f64| {
        if measured_ns > 0.0 {
            v / measured_ns
        } else {
            0.0
        }
    };
    out.set("split.crypto_share", share(crypto));
    out.set("split.bmt_share", share(bmt));
    out.set("split.cache_share", share(cache));
    out.set("split.nvm_share", share(nvm));
    out.set("split.sim_share", share(sim));
    out.set("split.workloads_share", share(workloads));
    out.set("split.os_share", share(os));
    out.set("split.glue_share", share(glue));
    out.set("controller.glue_ns_per_op", glue);
    // The model's own counts are guarded, not reported.
    out.guard("model.cache_accesses_per_op", n.cache_accesses);
    out.guard("model.cache_fills_per_op", n.cache_fills);
    out.guard("model.bmt_nodes_per_op", n.bmt_nodes);
    out.guard("model.sim_cache_accesses_per_op", n.sim_cache_accesses);
    out.guard("model.tracegen_events_per_op", n.tracegen_events);
    out.guard("model.translations_per_op", n.translations);
}

/// Reports span self times as shares of the root (`bench`) span time, and
/// the tracing overhead from the alternating traced and untraced units.
pub fn report_trace(
    out: &mut Outcome,
    tracer: &crate::tracer::Tracer,
    traced: &crate::TimedUnits,
    untraced: &crate::TimedUnits,
) {
    let total = tracer
        .layers()
        .get("bench")
        .map_or(0, |l| l.total_ns)
        .max(1) as f64;
    for (layer, metric) in [
        ("bench", "self.bench_share"),
        ("core.controller", "self.controller_share"),
        ("core.recovery", "self.recovery_share"),
        ("sim", "self.sim_share"),
    ] {
        let self_ns = tracer.layers().get(layer).map_or(0, |l| l.self_ns) as f64;
        out.set(metric, self_ns / total);
    }
    let up = untraced.ops_per_s();
    let tp = traced.ops_per_s();
    out.set("trace.ops_per_s_untraced", up);
    out.set("trace.ops_per_s_traced", tp);
    out.set("trace.overhead", if tp > 0.0 { up / tp - 1.0 } else { 0.0 });
}
