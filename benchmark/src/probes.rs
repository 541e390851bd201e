//! Replay probes: each substrate crate's public type driven with the key
//! and value trace of the workload, timed from outside.
//!
//! A probe times batches of [`BATCH`] calls so the two clock reads per
//! batch amortise to under a nanosecond per call; `_ns` metrics are the
//! mean wall nanoseconds per call. The probes run in the traced run only,
//! after the measured phase, so they never share the clock with it.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use prism_compaction::{msc_score, BucketMap, CompactionConfig, CompactionPlanner, RangeStats};
use prism_db::LruCache;
use prism_flash::{BloomFilter, SortedLog, SstBuilder, SstEntry, SstFile};
use prism_index::{BTreeIndex, FastIndex, HashDirectory};
use prism_net::protocol::HEADER;
use prism_net::{
    decode_request, decode_response, encode_request, encode_response, Request, Response,
    ResponseBody, Status,
};
use prism_nvm::{SlabConfig, SlabStore};
use prism_obs::LatencyHistogram;
use prism_storage::{group_digest, CommitLog, CommitPart, Device, DeviceProfile};
use prism_tracker::{ClockTracker, Mapper};
use prism_types::checksum::crc32;
use prism_types::{Key, Nanos, Op, Value};
use prism_workloads::OpStream;

/// Calls per timed batch.
const BATCH: usize = 1_024;
/// Ops of the workload's stream the probes replay.
pub const TRACE_OPS: usize = 200_000;
/// Distinct keys the data-holding probes (slab, SST, cache) store: enough
/// to leave the CPU caches, small enough to build in well under a second.
const STORED_KEYS: usize = 32_768;
/// Entries per probe SST: ~256 KB of 1 KB values, the engine's SST target.
const SST_ENTRIES: usize = 256;

/// Mean wall nanoseconds per call of `call` over `items`.
fn time_calls<T>(items: &[T], mut call: impl FnMut(&T)) -> f64 {
    let mut total_ns = 0u128;
    for batch in items.chunks(BATCH) {
        let start = Instant::now();
        for item in batch {
            call(item);
        }
        total_ns += start.elapsed().as_nanos();
    }
    total_ns as f64 / items.len().max(1) as f64
}

/// The slice of a workload the probes replay.
pub struct ProbeInput {
    /// The first [`TRACE_OPS`] ops of the stream, in order.
    ops: Vec<Op>,
    /// Their keys, in access order (hot keys repeat, as in the workload).
    keys: Vec<Key>,
    /// The distinct keys, ascending, at most [`STORED_KEYS`] of them.
    stored: Vec<Key>,
    /// Keys inside the stored range that were never stored.
    absent: Vec<Key>,
    /// A value of the workload's size.
    value: Value,
}

impl ProbeInput {
    /// Draw up to [`TRACE_OPS`] ops from `stream`.
    pub fn draw(stream: &mut OpStream, ops: usize) -> ProbeInput {
        let value = Value::filled(stream.workload().value_size, 0x5A);
        let drawn: Vec<Op> = stream.by_ref().take(ops.min(TRACE_OPS)).collect();
        let keys: Vec<Key> = drawn.iter().map(|op| op.key().clone()).collect();
        let mut stored = keys.clone();
        stored.sort_unstable();
        stored.dedup();
        stored.truncate(STORED_KEYS);
        let (low, high) = (stored[0].id(), stored[stored.len() - 1].id());
        let absent: Vec<Key> = (low..=high)
            .map(Key::from_id)
            .filter(|key| stored.binary_search(key).is_err())
            .take(STORED_KEYS)
            .collect();
        ProbeInput {
            ops: drawn,
            keys,
            stored,
            absent,
            value,
        }
    }

    /// Run every probe; returns `(metric name, value)` pairs.
    pub fn run(&self) -> Vec<(&'static str, f64)> {
        let mut out = Vec::new();
        self.types(&mut out);
        self.storage(&mut out);
        self.nvm(&mut out);
        self.flash(&mut out);
        self.index(&mut out);
        self.tracker(&mut out);
        self.compaction(&mut out);
        self.cache(&mut out);
        self.obs(&mut out);
        self.codec(&mut out);
        out
    }

    fn types(&self, out: &mut Vec<(&'static str, f64)>) {
        let values: Vec<Value> = (0..STORED_KEYS)
            .map(|i| Value::filled(self.value.len(), i as u8))
            .collect();
        let per_value = time_calls(&values, |v| {
            black_box(crc32(black_box(v.as_bytes())));
        });
        out.push((
            "types.crc32_ns_per_kb",
            per_value * 1024.0 / self.value.len().max(1) as f64,
        ));
        out.push((
            "types.value_clone_ns",
            time_calls(&values, |v| {
                black_box(v.clone());
            }),
        ));
    }

    fn storage(&self, out: &mut Vec<(&'static str, f64)>) {
        let device = Device::new(DeviceProfile::qlc_flash(1 << 40));
        out.push((
            "storage.device_call_ns",
            time_calls(&self.keys, |_| {
                black_box(device.read_random(black_box(4096)));
            }),
        ));
        // One cross-partition commit: two partition groups of four puts.
        let log = CommitLog::new(Arc::new(Device::new(DeviceProfile::optane_nvm(1 << 40))));
        let batches: Vec<&[Key]> = self.keys.chunks_exact(8).take(STORED_KEYS / 8).collect();
        let part = |partition: usize, keys: &[Key]| CommitPart {
            partition,
            entries: keys.len() as u64,
            digest: group_digest(keys.iter().map(|k| (k, Some(self.value.len() as u64)))),
            pre_images: keys
                .iter()
                .map(|k| (k.clone(), Some(self.value.clone())))
                .collect(),
        };
        out.push((
            "storage.commitlog_ns_per_batch",
            time_calls(&batches, |keys| {
                let (id, _) = log.begin(vec![part(0, &keys[..4]), part(1, &keys[4..])]);
                black_box(log.seal(id));
            }),
        ));
    }

    fn nvm(&self, out: &mut Vec<(&'static str, f64)>) {
        let capacity = 2 * (self.stored.len() * self.value.len().max(128)) as u64 + (1 << 20);
        let device = Arc::new(Device::new(DeviceProfile::optane_nvm(capacity)));
        let mut slab = SlabStore::new(SlabConfig::small_objects(capacity), device)
            .expect("the small-object slab classes are valid");
        let mut addrs = Vec::with_capacity(self.stored.len());
        let insert_ns = time_calls(&self.stored, |key| {
            let (addr, _) = slab
                .insert(key.clone(), self.value.clone(), 1)
                .expect("the probe slab is sized for every stored key");
            addrs.push(addr);
        });
        let placed: Vec<_> = addrs.iter().copied().zip(&self.stored).collect();
        let update_ns = time_calls(&placed, |(addr, key)| {
            black_box(
                slab.update(*addr, key, self.value.clone(), 2)
                    .expect("same size class"),
            );
        });
        let mut sim = Nanos::ZERO;
        let read_ns = time_calls(&addrs, |addr| {
            let (entry, cost) = slab.read(*addr).expect("the slot was just written");
            black_box(entry);
            sim += cost;
        });
        let remove_ns = time_calls(&addrs, |addr| {
            black_box(slab.remove(*addr).expect("the slot is live"));
        });
        out.push(("nvm.insert_ns", insert_ns));
        out.push(("nvm.update_ns", update_ns));
        out.push(("nvm.read_ns", read_ns));
        out.push(("nvm.remove_ns", remove_ns));
        out.push((
            "nvm.read_sim_ns",
            sim.as_nanos() as f64 / addrs.len().max(1) as f64,
        ));
    }

    fn flash(&self, out: &mut Vec<(&'static str, f64)>) {
        let device = Arc::new(Device::new(DeviceProfile::qlc_flash(1 << 40)));
        let chunks: Vec<(u64, &[Key])> = (1u64..).zip(self.stored.chunks(SST_ENTRIES)).collect();
        let mut files: Vec<Arc<SstFile>> = Vec::with_capacity(chunks.len());
        let build_ns_per_file = time_calls(&chunks, |(id, keys)| {
            let mut builder = SstBuilder::new(*id);
            for key in *keys {
                builder.add(key.clone(), SstEntry::value(self.value.clone(), 1));
            }
            files.push(Arc::new(builder.finish(&device).0));
        });
        out.push((
            "flash.sst_build_ns_per_entry",
            build_ns_per_file * chunks.len() as f64 / self.stored.len() as f64,
        ));
        let mut log = SortedLog::new();
        log.install(&[], files);

        // Keys in access order that the log holds, with the file holding them.
        let held: Vec<(&Key, &Arc<SstFile>)> = self
            .keys
            .iter()
            .filter_map(|key| log.lookup(key).map(|file| (key, file)))
            .filter(|(key, _)| self.stored.binary_search(key).is_ok())
            .collect();
        let missing: Vec<(&Key, &Arc<SstFile>)> = self
            .absent
            .iter()
            .filter_map(|key| log.lookup(key).map(|file| (key, file)))
            .collect();
        out.push((
            "flash.probe_hit_ns",
            time_calls(&held, |(key, file)| {
                black_box(file.probe(key));
            }),
        ));
        let mut false_positives = 0u64;
        out.push((
            "flash.probe_miss_ns",
            time_calls(&missing, |(key, file)| {
                false_positives += black_box(file.probe(key)).may_contain as u64;
            }),
        ));
        out.push((
            "flash.bloom_fp_rate",
            false_positives as f64 / missing.len().max(1) as f64,
        ));
        let mut bloom = BloomFilter::new(self.stored.len(), 10);
        self.stored.iter().for_each(|key| bloom.add(key));
        out.push((
            "flash.bloom_probe_ns",
            time_calls(&self.keys, |key| {
                black_box(bloom.may_contain(key));
            }),
        ));
        out.push((
            "flash.log_lookup_ns",
            time_calls(&self.keys, |key| {
                black_box(log.lookup(key));
            }),
        ));
        // A 50-key range out of one file, cloned out as a scan does.
        let mut entries = 0u64;
        let range_ns = time_calls(&held, |(key, file)| {
            let end = Key::from_id(key.id() + 50);
            let got: Vec<_> = file.range(key, &end).cloned().collect();
            entries += black_box(got).len() as u64;
        });
        out.push((
            "flash.range_ns_per_entry",
            range_ns * held.len() as f64 / entries.max(1) as f64,
        ));
    }

    fn index(&self, out: &mut Vec<(&'static str, f64)>) {
        let mut fast: FastIndex<Key, u64> = FastIndex::new();
        out.push((
            "index.insert_ns",
            time_calls(&self.stored, |key| {
                black_box(fast.insert(key.clone(), key.id()));
            }),
        ));
        out.push((
            "index.get_ns",
            time_calls(&self.keys, |key| {
                black_box(fast.get(key));
            }),
        ));
        out.push((
            "index.range50_ns",
            time_calls(&self.keys[..self.keys.len().min(STORED_KEYS)], |key| {
                black_box(fast.range_from(key).take(50).count());
            }),
        ));
        out.push((
            "index.remove_ns",
            time_calls(&self.stored, |key| {
                black_box(fast.remove(key));
            }),
        ));
        let mut btree: BTreeIndex<Key, u64> = BTreeIndex::new();
        out.push((
            "index.btree_insert_ns",
            time_calls(&self.stored, |key| {
                black_box(btree.insert(key.clone(), key.id()));
            }),
        ));
        out.push((
            "index.btree_get_ns",
            time_calls(&self.keys, |key| {
                black_box(btree.get(key));
            }),
        ));
        let mut hashdir: HashDirectory<Key, u64> = HashDirectory::new();
        out.push((
            "index.hashdir_insert_ns",
            time_calls(&self.stored, |key| {
                black_box(hashdir.insert(key.clone(), key.id()));
            }),
        ));
        out.push((
            "index.hashdir_get_ns",
            time_calls(&self.keys, |key| {
                black_box(hashdir.get(key));
            }),
        ));
    }

    fn tracker(&self, out: &mut Vec<(&'static str, f64)>) {
        // The engine tracks 20 % of the key space.
        let mut tracker = ClockTracker::new((self.stored.len() / 5).max(16));
        let mapper = Mapper::new();
        out.push((
            "tracker.access_ns",
            time_calls(&self.keys, |key| {
                mapper.apply(&tracker.access(key, false));
            }),
        ));
        out.push((
            "tracker.touch_ns",
            time_calls(&self.keys, |key| {
                black_box(tracker.touch(key, false));
            }),
        ));
        let tracked = tracker.len();
        out.push((
            "tracker.pin_decision_ns",
            time_calls(&self.keys, |key| {
                black_box(mapper.pin_decision(tracker.clock_of(key), 0.7, tracked));
            }),
        ));
    }

    fn compaction(&self, out: &mut Vec<(&'static str, f64)>) {
        let span = self.stored[self.stored.len() - 1].id() + 1;
        let bucket_size = (span / 64).clamp(256, 65_536);
        let mut buckets = BucketMap::new(bucket_size);
        for (i, key) in self.stored.iter().enumerate() {
            if i % 5 == 0 {
                buckets.on_nvm_insert(key.id());
            } else {
                buckets.on_flash_insert(key.id());
            }
        }
        self.keys.iter().for_each(|key| buckets.on_access(key.id()));
        // Candidate ranges one SST file wide, as the planner scores them.
        let ranges: Vec<(u64, u64)> = self
            .stored
            .chunks(SST_ENTRIES)
            .map(|keys| (keys[0].id(), keys[keys.len() - 1].id()))
            .cycle()
            .take(STORED_KEYS)
            .collect();
        let mut estimates: Vec<RangeStats> = Vec::with_capacity(ranges.len());
        out.push((
            "compaction.estimate_ns",
            time_calls(&ranges, |(start, end)| {
                estimates.push(buckets.estimate(*start, *end, 0.25));
            }),
        ));
        out.push((
            "compaction.msc_score_ns",
            time_calls(&estimates, |stats| {
                black_box(msc_score(stats));
            }),
        ));
        let mut planner = CompactionPlanner::new(CompactionConfig::default())
            .expect("the default compaction config is valid");
        let scores: Vec<f64> = estimates.iter().map(msc_score).collect();
        let file_count = self.stored.len().div_ceil(SST_ENTRIES);
        out.push((
            "compaction.pick_ns",
            time_calls(&ranges, |_| {
                let scored: Vec<(usize, f64)> = planner
                    .pick_candidate_indices(file_count)
                    .into_iter()
                    .map(|idx| (idx, scores[idx]))
                    .collect();
                black_box(planner.select_best(&scored));
            }),
        ));
    }

    fn cache(&self, out: &mut Vec<(&'static str, f64)>) {
        // A quarter of the stored keys fit, so both probes also evict.
        let mut cache = LruCache::new((self.stored.len() / 4 * self.value.len()) as u64);
        out.push((
            "core.cache_insert_ns",
            time_calls(&self.keys, |key| {
                cache.insert(key.clone(), self.value.clone())
            }),
        ));
        out.push((
            "core.cache_get_ns",
            time_calls(&self.keys, |key| {
                black_box(cache.get(key));
            }),
        ));
    }

    fn obs(&self, out: &mut Vec<(&'static str, f64)>) {
        let hist = LatencyHistogram::new();
        out.push((
            "obs.record_ns",
            time_calls(&self.keys, |key| {
                hist.record(black_box(key.id() * 37 + 100))
            }),
        ));
    }

    fn codec(&self, out: &mut Vec<(&'static str, f64)>) {
        let ops = &self.ops[..self.ops.len().min(STORED_KEYS)];
        let requests: Vec<(u64, Request)> = (1u64..).zip(ops.iter().map(wire_request)).collect();
        let mut frames = Vec::with_capacity(requests.len());
        out.push((
            "net.encode_request_ns",
            time_calls(&requests, |(id, request)| {
                frames.push(encode_request(*id, request).expect("workload ops fit a frame"));
            }),
        ));
        out.push((
            "net.decode_request_ns",
            time_calls(&frames, |frame| {
                black_box(decode_request(&frame[HEADER..]).expect("the frame was just encoded"));
            }),
        ));
        let responses: Vec<Response> = requests
            .iter()
            .map(|(id, request)| Response {
                id: *id,
                opcode: request.opcode(),
                status: Status::Ok,
                message: String::new(),
                latency: Nanos::from_nanos(1_400),
                body: match request {
                    Request::Get { .. } => ResponseBody::Value(Some(self.value.clone())),
                    Request::Scan { count, .. } => ResponseBody::Entries(
                        (0..*count as u64)
                            .map(|i| (Key::from_id(i), self.value.clone()))
                            .collect(),
                    ),
                    _ => ResponseBody::Ack,
                },
                more: false,
            })
            .collect();
        frames.clear();
        out.push((
            "net.encode_response_ns",
            time_calls(&responses, |response| {
                frames.push(encode_response(response).expect("workload results fit a frame"));
            }),
        ));
        out.push((
            "net.decode_response_ns",
            time_calls(&frames, |frame| {
                black_box(decode_response(&frame[HEADER..]).expect("the frame was just encoded"));
            }),
        ));
    }
}

/// The wire request that carries `op`.
pub fn wire_request(op: &Op) -> Request {
    match op {
        Op::Read(key) => Request::Get { key: key.clone() },
        Op::Update(key, value) | Op::Insert(key, value) | Op::ReadModifyWrite(key, value) => {
            Request::Put {
                key: key.clone(),
                value: value.clone(),
            }
        }
        Op::Scan(key, count) => Request::Scan {
            start: key.clone(),
            count: *count as u32,
        },
        Op::Delete(key) => Request::Delete { key: key.clone() },
    }
}
