//! The vault controller: transaction queueing, FR-FCFS command
//! scheduling, refresh, and full-empty atomics.

use std::collections::VecDeque;

use crate::addr::DecodedAddr;
use crate::bank::Bank;
use crate::config::{MemConfig, RowPolicy};
use crate::req::{MemRequest, MemResponse, QueueFullError, RequestKind};
use crate::stats::MemStats;
use crate::storage::Storage;
use crate::timing::BASELINE_T_REFI_PS;
use crate::Cycle;
use vip_faults::secded::Decoded;
use vip_faults::{fault_roll, fault_value, FaultDomain};
use vip_snap::{snapshot, Reader, SnapError, Snapshot, Writer};

#[derive(Debug)]
struct Txn {
    req: MemRequest,
    decoded: DecodedAddr,
    enqueued: Cycle,
    caused_act: bool,
}

snapshot!(struct Txn { req, decoded, enqueued, caused_act });

#[derive(Debug)]
struct PendingCompletion {
    at: Cycle,
    response: MemResponse,
    latency: Cycle,
}

snapshot!(struct PendingCompletion { at, response, latency });

/// One DRAM command chosen by the FR-FCFS picker
/// ([`VaultController::pick`]). The index is the queue position of the
/// transaction the command serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DramCommand {
    /// Column read or write for a row-hit transaction.
    Column(usize),
    /// PRECHARGE of the transaction's bank, closing a conflicting row.
    Precharge(usize),
    /// ACTIVATE of the transaction's row in its precharged bank.
    Activate(usize),
}

/// Bytes a request touches: the payload for writes, `len` otherwise.
fn access_len(req: &MemRequest) -> usize {
    if req.kind == RequestKind::Write {
        req.data.len()
    } else {
        req.len
    }
}

/// Whether two plain transactions touch overlapping byte ranges, and so
/// must not reorder around each other (RAW/WAR/WAW through DRAM).
/// Full-empty transactions never conflict: their ordering comes from
/// the full bit itself, and blocking on them would deadlock
/// producer-consumer pairs that share a word by design.
fn overlaps(a: &MemRequest, b: &MemRequest) -> bool {
    !a.is_full_empty()
        && !b.is_full_empty()
        && a.addr < b.addr + access_len(b) as u64
        && b.addr < a.addr + access_len(a) as u64
}

/// Whether a request's full-empty bit lets it issue (always, for plain
/// requests).
fn fe_permits(storage: &Storage, req: &MemRequest) -> bool {
    match req.kind {
        RequestKind::FeLoad => storage.is_full(req.addr),
        RequestKind::FeStore => !storage.is_full(req.addr),
        _ => true,
    }
}

/// Cycle-level model of one HMC vault: a transaction queue in front of 16
/// independently-controlled banks sharing one 10 GB/s data path.
///
/// Scheduling is first-ready, first-come-first-served (FR-FCFS): the
/// oldest transaction whose row is open issues first; otherwise the
/// controller works on opening the oldest transaction's row, precharging
/// a conflicting row if necessary. One command issues per cycle. Refresh
/// fires every tREFI and stalls the whole vault for tRFC (all-bank
/// refresh, as in the HMC). Under the closed-page policy every column
/// command carries auto-precharge.
///
/// Full-empty transactions ([`RequestKind::FeLoad`]/[`RequestKind::FeStore`]) wait in
/// the queue until the word's full bit permits, then issue like a normal
/// column access; because command issue is serialized per vault the
/// test-and-update is atomic (§IV-A's synchronization variables).
///
/// The scheduler is incremental. Each queued transaction carries the
/// number of older, overlapping plain transactions it must wait for,
/// maintained in O(queue) on enqueue and on column issue. The
/// controller also caches the earliest cycle at which
/// [`pick`](Self::pick) can return a command
/// ([`schedule_bound`](Self::schedule_bound)): [`tick`](Self::tick)
/// skips the picker before it and [`next_event`](Self::next_event)
/// reports it. Any change to the queue, the banks or the full-empty
/// bits invalidates the cache; callers that flip full-empty bits
/// behind the controller's back (host writes to the store) must call
/// [`invalidate_schedule`](Self::invalidate_schedule). Both are
/// derived state: snapshots never carry them.
#[derive(Debug)]
pub struct VaultController {
    vault: usize,
    cfg: MemConfig,
    banks: Vec<Bank>,
    queue: VecDeque<Txn>,
    /// Per queued transaction, in queue order: how many older plain
    /// transactions overlap it. It may issue only at zero.
    conflicts: VecDeque<u32>,
    /// Cached [`schedule_bound`](Self::schedule_bound); `None` when
    /// stale.
    bound: Option<Cycle>,
    completions: Vec<PendingCompletion>,
    now: Cycle,
    next_refresh: Cycle,
    refresh_pending: bool,
    refresh_until: Cycle,
    bus_free_at: Cycle,
    stats: MemStats,
}

impl VaultController {
    /// Creates the controller for `vault` under `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`MemConfig::validate`].
    #[must_use]
    pub fn new(vault: usize, cfg: MemConfig) -> Self {
        cfg.validate().expect("valid memory configuration");
        let banks = vec![Bank::new(); cfg.banks_per_vault];
        let next_refresh = cfg.timing.t_refi();
        VaultController {
            vault,
            cfg,
            banks,
            queue: VecDeque::new(),
            conflicts: VecDeque::new(),
            bound: None,
            completions: Vec::new(),
            now: 0,
            next_refresh,
            refresh_pending: false,
            refresh_until: 0,
            bus_free_at: 0,
            stats: MemStats::default(),
        }
    }

    /// The vault index.
    #[must_use]
    pub fn vault(&self) -> usize {
        self.vault
    }

    /// Number of queued (unissued) transactions.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// The queued transactions, oldest first, each with its count of
    /// older overlapping plain transactions (zero for full-empty ones).
    pub fn queued(&self) -> impl Iterator<Item = (&MemRequest, u32)> {
        self.queue
            .iter()
            .map(|t| &t.req)
            .zip(self.conflicts.iter().copied())
    }

    /// Wires (or removes) retention-fault injection at runtime.
    pub fn set_faults(&mut self, faults: Option<vip_faults::DramFaultConfig>) {
        self.cfg.faults = faults;
    }

    /// Whether the transaction queue can accept another request.
    #[must_use]
    pub fn can_accept(&self) -> bool {
        self.queue.len() < self.cfg.trans_queue_depth
    }

    /// Whether no work is queued or in flight.
    #[must_use]
    pub fn is_idle(&self) -> bool {
        self.queue.is_empty() && self.completions.is_empty()
    }

    /// Statistics snapshot (with `elapsed_cycles` set to the current
    /// cycle).
    #[must_use]
    pub fn stats(&self) -> MemStats {
        MemStats {
            elapsed_cycles: self.now,
            ..self.stats
        }
    }

    /// Enqueues a transaction.
    ///
    /// # Errors
    ///
    /// Returns [`QueueFullError`] if the transaction queue is full (the
    /// caller retries next cycle — this is the back-pressure the NoC
    /// sees).
    ///
    /// # Panics
    ///
    /// Panics if the request crosses a column boundary or targets a
    /// different vault (the load-store unit splits requests into columns
    /// and the network routes them, so either is a simulator bug).
    pub fn enqueue(&mut self, req: MemRequest) -> Result<(), QueueFullError> {
        if !self.can_accept() {
            return Err(QueueFullError { vault: self.vault });
        }
        let len = access_len(&req);
        let granule = self.cfg.request_granule() as u64;
        assert!(
            (req.addr % granule) + len as u64 <= granule,
            "request at {:#x} len {} crosses a {}-byte request granule (HMC packets \
             carry at most 128 B and never cross a DRAM row)",
            req.addr,
            len,
            granule
        );
        let decoded = self.cfg.mapping.decode(&self.cfg, req.addr);
        assert_eq!(
            decoded.vault, self.vault,
            "request at {:#x} routed to vault {} but maps to vault {}",
            req.addr, self.vault, decoded.vault
        );
        let conflicts = self.queue.iter().filter(|t| overlaps(&t.req, &req)).count();
        self.conflicts.push_back(conflicts as u32);
        self.queue.push_back(Txn {
            req,
            decoded,
            enqueued: self.now,
            caused_act: false,
        });
        self.bound = None;
        Ok(())
    }

    /// Advances one cycle: retires matured completions into `out`, then
    /// issues at most one DRAM command.
    pub fn tick(&mut self, storage: &mut Storage, out: &mut Vec<MemResponse>) {
        self.now += 1;
        if !self.queue.is_empty() || !self.completions.is_empty() {
            self.stats.busy_cycles += 1;
        }

        // Retire matured completions.
        let now = self.now;
        let mut i = 0;
        while i < self.completions.len() {
            if self.completions[i].at <= now {
                let done = self.completions.swap_remove(i);
                self.stats.total_latency_cycles += done.latency;
                match done.response.kind {
                    RequestKind::Read | RequestKind::FeLoad => {
                        self.stats.reads += 1;
                        self.stats.bytes_read += done.response.data.len() as u64;
                    }
                    RequestKind::Write | RequestKind::FeStore => {
                        self.stats.writes += 1;
                    }
                }
                out.push(done.response);
            } else {
                i += 1;
            }
        }

        // Refresh in progress: the whole vault is blocked.
        if self.now < self.refresh_until {
            return;
        }
        if self.now >= self.next_refresh {
            self.refresh_pending = true;
        }
        if self.refresh_pending {
            // Start the refresh once every bank is ready; until then
            // precharge one open bank per cycle. While banks drain
            // tRAS/tWR nothing else may issue, so the refresh starts
            // promptly.
            if !self.try_start_refresh() {
                self.issue_precharge_for_refresh();
            }
            return;
        }

        let bound = self.schedule_bound(storage);
        if now < bound {
            debug_assert_eq!(
                self.pick(storage, now),
                None,
                "the cached schedule bound {bound} gated cycle {now} with a command ready"
            );
            return;
        }
        if let Some(cmd) = self.pick(storage, now) {
            self.apply(cmd, storage);
        }
    }

    /// The earliest cycle at which [`pick`](Self::pick) can return a
    /// command, or `Cycle::MAX` if no queued transaction can issue
    /// without new input: the minimum, over full-empty-permitted
    /// transactions with no older conflict, of the cycle their bank
    /// accepts the command they need next (column, precharge or
    /// activate). Exact, not just a lower bound, while the queue, the
    /// banks and the full-empty bits stay as they are; every change to
    /// them invalidates the cached value.
    pub fn schedule_bound(&mut self, storage: &Storage) -> Cycle {
        if let Some(bound) = self.bound {
            return bound;
        }
        let bound = self
            .queue
            .iter()
            .zip(&self.conflicts)
            .filter(|&(txn, &c)| c == 0 && fe_permits(storage, &txn.req))
            .map(|(txn, _)| {
                let bank = &self.banks[txn.decoded.bank];
                match bank.open_row() {
                    Some(row) if row == txn.decoded.row => bank.earliest_column(),
                    Some(_) => bank.earliest_precharge(),
                    None => bank.earliest_activate(),
                }
            })
            .min()
            .unwrap_or(Cycle::MAX);
        self.bound = Some(bound);
        bound
    }

    /// Marks the cached [`schedule_bound`](Self::schedule_bound) stale.
    /// Call after changing a full-empty bit of this vault's words
    /// outside [`tick`](Self::tick).
    pub fn invalidate_schedule(&mut self) {
        self.bound = None;
    }

    /// A sound lower bound on the next cycle at which this vault can do
    /// anything: retire a completion, make refresh progress, or issue a
    /// DRAM command. Returns `None` only when the vault will never act
    /// again without new input — which cannot happen here, because
    /// refresh fires unconditionally every tREFI, so the result is
    /// always `Some`.
    ///
    /// "Sound lower bound" means the vault is guaranteed idle on every
    /// cycle in `(now, next_event)`; waking early is harmless (the tick
    /// is a no-op), waking late would change simulated behaviour. The
    /// command candidate is the cached
    /// [`schedule_bound`](Self::schedule_bound). A transaction blocked
    /// on its full-empty bit contributes nothing to it: only a column
    /// issued by this vault (the partner transaction, which has its own
    /// candidate) or the host can flip the bit, and exactly one side of
    /// a load/store pair is permitted at any time.
    pub fn next_event(&mut self, storage: &Storage) -> Option<Cycle> {
        let now = self.now;
        let mut next = Cycle::MAX;
        // Completions retire when their cycle matures, even mid-refresh.
        for done in &self.completions {
            next = next.min(done.at);
        }
        if now < self.refresh_until {
            // The whole vault is blocked; nothing issues earlier.
            next = next.min(self.refresh_until);
        } else if self.refresh_pending {
            // Working toward refresh: one precharge per cycle, or
            // waiting out tRAS/tWR. The window is tightly bounded, so
            // step through it.
            next = now + 1;
        } else {
            // Refresh fires every tREFI regardless of load (the counter
            // must match a cycle-by-cycle run exactly).
            next = next
                .min(self.next_refresh)
                .min(self.schedule_bound(storage));
        }
        Some(next.max(now + 1))
    }

    /// Jumps the vault's clock to `to`, replaying the per-cycle counters
    /// that `to - now` idle ticks would have accumulated. Callers must
    /// have established (via [`next_event`](Self::next_event)) that every
    /// skipped cycle is a no-op; the queue/completion occupancy is
    /// constant across such a window, so the busy-cycle counter advances
    /// linearly.
    pub fn skip_to(&mut self, to: Cycle) {
        debug_assert!(to >= self.now);
        if !self.queue.is_empty() || !self.completions.is_empty() {
            self.stats.busy_cycles += to - self.now;
        }
        self.now = to;
    }

    /// Jumps an *idle* vault's clock far forward, crediting the
    /// refreshes that would have fired on schedule during the span
    /// instead of performing them late. The functional execution tier
    /// uses this when it retires a stretch of untimed work: unlike
    /// [`skip_to`](Self::skip_to), the jump may cross any number of
    /// tREFI boundaries, and the vault comes out with its refresh
    /// schedule aligned to the new clock (no catch-up refresh burst
    /// distorting the next timing window).
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the vault still has queued or
    /// in-flight work — idle means idle.
    pub fn advance_idle(&mut self, to: Cycle) {
        debug_assert!(self.queue.is_empty() && self.completions.is_empty());
        if to <= self.now {
            return;
        }
        self.now = to;
        self.refresh_pending = false;
        self.bound = None;
        let refi = self.cfg.timing.t_refi();
        while self.next_refresh <= to {
            self.next_refresh += refi;
            self.stats.refreshes += 1;
        }
        // Any refresh that was mid-flight completed within the span.
        self.refresh_until = self.refresh_until.min(to);
    }

    /// Serializes every piece of mutable controller state: bank state
    /// machines, the transaction queue, pending completions (in their
    /// exact in-memory order — retirement uses `swap_remove`, so the
    /// order is architecturally significant), the refresh machinery,
    /// the shared-bus reservation, counters, and the runtime-settable
    /// fault configuration.
    pub fn save_state(&self, w: &mut Writer) {
        self.banks.save(w);
        self.queue.save(w);
        self.completions.save(w);
        w.u64(self.now);
        w.u64(self.next_refresh);
        w.bool(self.refresh_pending);
        w.u64(self.refresh_until);
        w.u64(self.bus_free_at);
        self.stats.save(w);
        self.cfg.faults.save(w);
    }

    /// Restores state saved by [`save_state`](Self::save_state) onto a
    /// controller freshly built with the same configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`SnapError`] on decode failure or if the snapshot's
    /// bank count disagrees with this controller's geometry.
    pub fn restore_state(&mut self, r: &mut Reader<'_>) -> Result<(), SnapError> {
        let banks = Vec::<Bank>::restore(r)?;
        if banks.len() != self.banks.len() {
            return Err(SnapError::Corrupt("bank count mismatch"));
        }
        self.banks = banks;
        self.queue = VecDeque::restore(r)?;
        self.conflicts = (0..self.queue.len())
            .map(|i| {
                let req = &self.queue[i].req;
                self.queue
                    .range(..i)
                    .filter(|t| overlaps(&t.req, req))
                    .count() as u32
            })
            .collect();
        self.bound = None;
        self.completions = Vec::restore(r)?;
        self.now = r.u64()?;
        self.next_refresh = r.u64()?;
        self.refresh_pending = r.bool()?;
        self.refresh_until = r.u64()?;
        self.bus_free_at = r.u64()?;
        self.stats = MemStats::restore(r)?;
        self.cfg.faults = Option::restore(r)?;
        Ok(())
    }

    fn try_start_refresh(&mut self) -> bool {
        let now = self.now;
        if self.banks.iter().all(|b| b.refresh_ready(now)) {
            let until = now + self.cfg.timing.t_rfc();
            for bank in &mut self.banks {
                bank.block_until(until);
            }
            self.refresh_until = until;
            self.next_refresh += self.cfg.timing.t_refi();
            self.refresh_pending = false;
            self.stats.refreshes += 1;
            self.bound = None;
            true
        } else {
            false
        }
    }

    fn issue_precharge_for_refresh(&mut self) {
        let now = self.now;
        let timing = self.cfg.timing;
        for bank in &mut self.banks {
            if bank.can_precharge(now) {
                bank.precharge(now, &timing);
                self.bound = None;
                return;
            }
        }
    }

    /// FR-FCFS at cycle `now`, as a pure function of the controller's
    /// state: the oldest row-hit transaction whose bank is ready gets a
    /// column command; failing that, the oldest transaction needing row
    /// work gets the precharge or activate its bank can take. Only
    /// transactions with no older conflict whose full-empty bit permits
    /// are considered — opening a blocked full-empty transaction's row
    /// would be wasted work and can livelock conflicting rows.
    #[must_use]
    pub fn pick(&self, storage: &Storage, now: Cycle) -> Option<DramCommand> {
        let ready = |i: usize| self.conflicts[i] == 0 && fe_permits(storage, &self.queue[i].req);
        let hit = (0..self.queue.len()).find(|&i| {
            let txn = &self.queue[i];
            self.banks[txn.decoded.bank].can_access(now, txn.decoded.row) && ready(i)
        });
        if let Some(i) = hit {
            return Some(DramCommand::Column(i));
        }
        (0..self.queue.len()).filter(|&i| ready(i)).find_map(|i| {
            let txn = &self.queue[i];
            let bank = &self.banks[txn.decoded.bank];
            match bank.open_row() {
                // Waiting on tRCD/tCCD.
                Some(open) if open == txn.decoded.row => None,
                Some(_) => bank.can_precharge(now).then_some(DramCommand::Precharge(i)),
                None => bank.can_activate(now).then_some(DramCommand::Activate(i)),
            }
        })
    }

    /// Issues a command [`pick`](Self::pick) chose this cycle.
    fn apply(&mut self, cmd: DramCommand, storage: &mut Storage) {
        let now = self.now;
        let timing = self.cfg.timing;
        match cmd {
            DramCommand::Column(i) => self.issue_column(i, storage),
            DramCommand::Precharge(i) => {
                self.banks[self.queue[i].decoded.bank].precharge(now, &timing);
                self.stats.row_conflicts += 1;
            }
            DramCommand::Activate(i) => {
                let txn = &mut self.queue[i];
                self.banks[txn.decoded.bank].activate(now, txn.decoded.row, &timing);
                txn.caused_act = true;
                self.stats.row_misses += 1;
            }
        }
        self.bound = None;
    }

    /// The protected read data path: lands any retention faults due on
    /// the words of this access, SECDED-decodes them (correcting and
    /// scrubbing single-bit flips), then reads the — possibly repaired —
    /// bytes. Returns the data and whether an uncorrectable error
    /// poisons it.
    ///
    /// Fault draws are keyed by (word address, issue cycle): vault issue
    /// cycles are bit-identical across the stepping engines, so every
    /// engine sees the same faults. Only fully-contained aligned 8-byte
    /// words participate (ECC is word-granular).
    fn read_protected(&mut self, storage: &mut Storage, addr: u64, len: usize) -> (Vec<u8>, bool) {
        let mut poisoned = false;
        if let Some(f) = self.cfg.faults {
            let single = u64::from(
                f.effective_single_bit_ppm(self.cfg.timing.t_refi_ps, BASELINE_T_REFI_PS),
            );
            let double = u64::from(f.double_bit_ppm);
            let end = addr + len as u64;
            let mut word = addr.next_multiple_of(8);
            while word + 8 <= end {
                if single + double > 0 {
                    let roll = fault_roll(f.seed, FaultDomain::DramRetention, word, self.now);
                    if roll < single + double {
                        let v = fault_value(f.seed, FaultDomain::DramRetention, word, self.now);
                        let b1 = (v % 64) as u32;
                        if roll < single {
                            storage.corrupt_word(word, &[b1]);
                        } else {
                            let b2 = ((v >> 8) % 63) as u32;
                            // Map onto 0..64 \ {b1} so the flips are
                            // always two distinct bits.
                            let b2 = if b2 >= b1 { b2 + 1 } else { b2 };
                            storage.corrupt_word(word, &[b1, b2]);
                        }
                        self.stats.retention_faults += 1;
                    }
                }
                // Decode unconditionally: corruption injected by an
                // earlier uncorrectable read is still pending.
                match storage.ecc_decode(word) {
                    Some(Decoded::Corrected { .. }) => self.stats.ecc_corrected += 1,
                    Some(Decoded::Uncorrectable) => {
                        self.stats.ecc_uncorrectable += 1;
                        poisoned = true;
                    }
                    Some(Decoded::Clean) | None => {}
                }
                word += 8;
            }
        }
        (storage.read_vec(addr, len), poisoned)
    }

    fn issue_column(&mut self, idx: usize, storage: &mut Storage) {
        let mut txn = self.queue.remove(idx).expect("index in range");
        self.conflicts.remove(idx);
        // Younger transactions that waited on this one wait on one less.
        for (younger, c) in self.queue.iter().zip(self.conflicts.iter_mut()).skip(idx) {
            if overlaps(&younger.req, &txn.req) {
                *c -= 1;
            }
        }
        let now = self.now;
        let timing = self.cfg.timing;
        // A request spanning several columns of one row issues its
        // column commands tCCD apart (same bank); the data occupies the
        // shared bus for one burst per column.
        let len = access_len(&txn.req) as u64;
        let col = self.cfg.col_bytes as u64;
        let cols = ((txn.req.addr % col) + len).div_ceil(col).max(1);
        let last_cmd = now + (cols - 1) * timing.t_ccd();
        let data_start =
            (last_cmd + timing.t_cl()).max(self.bus_free_at + (cols - 1) * self.cfg.burst_cycles);
        let burst_end = data_start + self.cfg.burst_cycles;
        self.bus_free_at = burst_end;
        self.banks[txn.decoded.bank].column_issued(last_cmd, &timing);

        if !txn.caused_act {
            self.stats.row_hits += 1;
        }

        let response = match txn.req.kind {
            RequestKind::Read => {
                let (data, poisoned) = self.read_protected(storage, txn.req.addr, txn.req.len);
                self.banks[txn.decoded.bank].access_read(burst_end, &timing);
                MemResponse {
                    id: txn.req.id,
                    kind: RequestKind::Read,
                    addr: txn.req.addr,
                    data,
                    poisoned,
                }
            }
            RequestKind::Write => {
                self.banks[txn.decoded.bank].access_write(burst_end, &timing);
                self.stats.bytes_written += txn.req.data.len() as u64;
                storage.write(txn.req.addr, &txn.req.data);
                MemResponse {
                    id: txn.req.id,
                    kind: RequestKind::Write,
                    addr: txn.req.addr,
                    data: Vec::new(),
                    poisoned: false,
                }
            }
            RequestKind::FeLoad => {
                let (data, poisoned) = self.read_protected(storage, txn.req.addr, 8);
                self.banks[txn.decoded.bank].access_read(burst_end, &timing);
                storage.set_full(txn.req.addr, false);
                MemResponse {
                    id: txn.req.id,
                    kind: RequestKind::FeLoad,
                    addr: txn.req.addr,
                    data,
                    poisoned,
                }
            }
            RequestKind::FeStore => {
                self.banks[txn.decoded.bank].access_write(burst_end, &timing);
                self.stats.bytes_written += txn.req.data.len() as u64;
                storage.write(txn.req.addr, &txn.req.data);
                storage.set_full(txn.req.addr, true);
                MemResponse {
                    id: txn.req.id,
                    kind: RequestKind::FeStore,
                    addr: txn.req.addr,
                    data: Vec::new(),
                    poisoned: false,
                }
            }
        };

        if self.cfg.policy == RowPolicy::ClosedPage {
            let pre_at = match txn.req.kind {
                RequestKind::Write | RequestKind::FeStore => burst_end + timing.t_wr(),
                _ => burst_end,
            };
            self.banks[txn.decoded.bank].auto_precharge_at(pre_at, &timing);
        }

        txn.caused_act = false;
        self.completions.push(PendingCompletion {
            at: burst_end,
            response,
            latency: burst_end - txn.enqueued,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_until_idle(
        vc: &mut VaultController,
        storage: &mut Storage,
        limit: Cycle,
    ) -> Vec<MemResponse> {
        let mut out = Vec::new();
        for _ in 0..limit {
            vc.tick(storage, &mut out);
            if vc.is_idle() {
                break;
            }
        }
        assert!(
            vc.is_idle(),
            "controller did not drain within {limit} cycles"
        );
        out
    }

    #[test]
    fn read_returns_written_data() {
        let mut storage = Storage::new();
        storage.write(64, &[7; 32]);
        let mut vc = VaultController::new(0, MemConfig::baseline());
        vc.enqueue(MemRequest::read(1, 64, 32)).unwrap();
        let out = run_until_idle(&mut vc, &mut storage, 500);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].data, vec![7; 32]);
        let s = vc.stats();
        assert_eq!(s.reads, 1);
        assert_eq!(s.row_misses, 1);
        assert_eq!(s.row_hits, 0);
    }

    #[test]
    fn cold_read_latency_is_trcd_plus_tcl_plus_burst() {
        let mut storage = Storage::new();
        let cfg = MemConfig::baseline();
        let expect = cfg.timing.t_rcd() + cfg.timing.t_cl() + cfg.burst_cycles;
        let mut vc = VaultController::new(0, cfg);
        vc.enqueue(MemRequest::read(1, 0, 32)).unwrap();
        let out = run_until_idle(&mut vc, &mut storage, 500);
        assert_eq!(out.len(), 1);
        // +2: one cycle for the enqueue tick to see it, one for ACT itself.
        let measured = vc.stats().total_latency_cycles;
        assert!(
            (expect..=expect + 2).contains(&measured),
            "latency {measured}, expected about {expect}"
        );
    }

    #[test]
    fn open_page_hits_same_row() {
        let mut storage = Storage::new();
        let mut vc = VaultController::new(0, MemConfig::baseline());
        // Two columns of the same row.
        vc.enqueue(MemRequest::read(1, 0, 32)).unwrap();
        vc.enqueue(MemRequest::read(2, 32, 32)).unwrap();
        run_until_idle(&mut vc, &mut storage, 500);
        let s = vc.stats();
        assert_eq!(s.row_misses, 1);
        assert_eq!(s.row_hits, 1);
    }

    #[test]
    fn closed_page_never_hits() {
        let mut storage = Storage::new();
        let mut vc = VaultController::new(0, MemConfig::closed_page());
        vc.enqueue(MemRequest::read(1, 0, 32)).unwrap();
        vc.enqueue(MemRequest::read(2, 32, 32)).unwrap();
        run_until_idle(&mut vc, &mut storage, 800);
        let s = vc.stats();
        assert_eq!(s.row_misses, 2);
        assert_eq!(s.row_hits, 0);
    }

    #[test]
    fn row_conflict_precharges() {
        let mut storage = Storage::new();
        let cfg = MemConfig::baseline();
        // Same bank, different rows: rows advance every
        // banks*row_bytes bytes under vault-row-bank-col.
        let stride = (cfg.banks_per_vault * cfg.row_bytes) as u64;
        let mut vc = VaultController::new(0, cfg);
        vc.enqueue(MemRequest::read(1, 0, 32)).unwrap();
        vc.enqueue(MemRequest::read(2, stride, 32)).unwrap();
        run_until_idle(&mut vc, &mut storage, 1000);
        let s = vc.stats();
        assert_eq!(s.row_conflicts, 1);
        assert_eq!(s.row_misses, 2);
    }

    #[test]
    fn different_banks_overlap() {
        // Reads to N different banks should take far less than N x the
        // single-read latency thanks to bank-level parallelism.
        let mut storage = Storage::new();
        let cfg = MemConfig::baseline();
        let row_stride = cfg.row_bytes as u64; // next bank
        let mut vc = VaultController::new(0, cfg.clone());
        for b in 0..8u64 {
            vc.enqueue(MemRequest::read(b, b * row_stride, 32)).unwrap();
        }
        let mut out = Vec::new();
        let mut cycles = 0;
        while !vc.is_idle() {
            vc.tick(&mut storage, &mut out);
            cycles += 1;
            assert!(cycles < 5000);
        }
        assert_eq!(out.len(), 8);
        let single = cfg.timing.t_rcd() + cfg.timing.t_cl() + cfg.burst_cycles + 2;
        assert!(
            cycles < 8 * single / 2,
            "8 bank-parallel reads took {cycles} cycles (single ~{single})"
        );
    }

    #[test]
    fn refresh_blocks_and_counts() {
        let mut storage = Storage::new();
        let cfg = MemConfig::baseline();
        let refi = cfg.timing.t_refi();
        let mut vc = VaultController::new(0, cfg);
        let mut out = Vec::new();
        for _ in 0..(refi * 3 + 10) {
            vc.tick(&mut storage, &mut out);
        }
        assert_eq!(vc.stats().refreshes, 3);
    }

    #[test]
    fn fe_store_then_load_pair() {
        let mut storage = Storage::new();
        let mut vc = VaultController::new(0, MemConfig::baseline());
        // The load is queued first but cannot proceed until the store
        // sets the full bit.
        vc.enqueue(MemRequest::fe_load(1, 128)).unwrap();
        vc.enqueue(MemRequest::fe_store(2, 128, 0xabcd)).unwrap();
        let out = run_until_idle(&mut vc, &mut storage, 2000);
        assert_eq!(out.len(), 2);
        let load = out.iter().find(|r| r.id == 1).unwrap();
        assert_eq!(
            u64::from_le_bytes(load.data.clone().try_into().unwrap()),
            0xabcd
        );
        assert!(!storage.is_full(128), "load consumed the full bit");
    }

    #[test]
    fn fe_load_waits_indefinitely_without_producer() {
        let mut storage = Storage::new();
        let mut vc = VaultController::new(0, MemConfig::baseline());
        vc.enqueue(MemRequest::fe_load(1, 128)).unwrap();
        let mut out = Vec::new();
        for _ in 0..500 {
            vc.tick(&mut storage, &mut out);
        }
        assert!(out.is_empty());
        assert_eq!(vc.pending(), 1);
    }

    #[test]
    fn queue_backpressure() {
        let cfg = MemConfig::baseline();
        let depth = cfg.trans_queue_depth;
        let mut vc = VaultController::new(0, cfg);
        for i in 0..depth {
            vc.enqueue(MemRequest::read(i as u64, (i * 32) as u64, 32))
                .unwrap();
        }
        assert!(vc.enqueue(MemRequest::read(99, 0, 32)).is_err());
    }

    #[test]
    fn multi_column_packets_within_a_row_are_legal() {
        // With the 128 B packet option, requests span up to 128 B of one
        // row.
        let mut storage = Storage::new();
        storage.write(16, &[9; 32]);
        let mut vc = VaultController::new(0, MemConfig::with_hmc_packets());
        vc.enqueue(MemRequest::read(1, 16, 32)).unwrap();
        vc.enqueue(MemRequest::read(2, 0, 128)).unwrap();
        let out = run_until_idle(&mut vc, &mut storage, 1000);
        assert_eq!(out.iter().find(|r| r.id == 1).unwrap().data, vec![9; 32]);
        assert_eq!(out.iter().find(|r| r.id == 2).unwrap().data.len(), 128);
    }

    #[test]
    fn injected_single_bit_faults_are_corrected_and_counted() {
        // Fire on every word-read: the data still comes back golden
        // because SECDED corrects each flip on the fly.
        let cfg = MemConfig::baseline().with_faults(vip_faults::DramFaultConfig {
            seed: 0xfa017,
            single_bit_ppm: 1_000_000,
            double_bit_ppm: 0,
        });
        let mut storage = Storage::new();
        storage.write(0, &[0x5a; 32]);
        let mut vc = VaultController::new(0, cfg);
        vc.enqueue(MemRequest::read(1, 0, 32)).unwrap();
        let out = run_until_idle(&mut vc, &mut storage, 500);
        assert_eq!(out[0].data, vec![0x5a; 32], "corrected in flight");
        assert!(!out[0].poisoned);
        let s = vc.stats();
        assert_eq!(s.retention_faults, 4, "one per word of the column");
        assert_eq!(s.ecc_corrected, 4);
        assert_eq!(s.ecc_uncorrectable, 0);
        // Scrubbing repaired the backing store too.
        assert_eq!(storage.read_vec(0, 32), vec![0x5a; 32]);
        assert_eq!(storage.corrupted_words(), 0);
    }

    #[test]
    fn injected_double_bit_faults_poison_the_response() {
        let cfg = MemConfig::baseline().with_faults(vip_faults::DramFaultConfig {
            seed: 3,
            single_bit_ppm: 0,
            double_bit_ppm: 1_000_000,
        });
        let mut storage = Storage::new();
        storage.write(0, &[0x11; 32]);
        let mut vc = VaultController::new(0, cfg);
        vc.enqueue(MemRequest::read(7, 0, 32)).unwrap();
        let out = run_until_idle(&mut vc, &mut storage, 500);
        assert!(out[0].poisoned);
        assert_ne!(out[0].data, vec![0x11; 32], "data really is damaged");
        let s = vc.stats();
        assert_eq!(s.ecc_uncorrectable, 4);
        assert_eq!(s.ecc_corrected, 0);
    }

    #[test]
    fn zero_rate_faults_change_nothing() {
        // A wired injector with zero rates must be bit-identical to no
        // injector at all, including every statistic.
        let run = |cfg: MemConfig| {
            let mut storage = Storage::new();
            storage.write(64, &[7; 32]);
            let mut vc = VaultController::new(0, cfg);
            vc.enqueue(MemRequest::read(1, 64, 32)).unwrap();
            vc.enqueue(MemRequest::fe_store(2, 128, 5)).unwrap();
            vc.enqueue(MemRequest::fe_load(3, 128)).unwrap();
            let out = run_until_idle(&mut vc, &mut storage, 2000);
            (out, vc.stats())
        };
        let plain = run(MemConfig::baseline());
        let wired = run(
            MemConfig::baseline().with_faults(vip_faults::DramFaultConfig {
                seed: 99,
                single_bit_ppm: 0,
                double_bit_ppm: 0,
            }),
        );
        assert_eq!(plain, wired);
    }

    #[test]
    #[should_panic(expected = "request granule")]
    fn crossing_the_request_granule_panics() {
        // Default packets are one column; 32 B starting mid-column
        // crosses the granule.
        let mut vc = VaultController::new(0, MemConfig::baseline());
        let _ = vc.enqueue(MemRequest::read(1, 16, 32));
    }

    #[test]
    #[should_panic(expected = "request granule")]
    fn crossing_a_row_panics_even_with_big_packets() {
        let mut vc = VaultController::new(0, MemConfig::with_hmc_packets());
        let _ = vc.enqueue(MemRequest::read(1, 64, 128));
    }

    #[test]
    #[should_panic(expected = "routed to vault")]
    fn wrong_vault_panics() {
        let cfg = MemConfig::baseline();
        let other_vault_addr = cfg.vault_base(1);
        let mut vc = VaultController::new(0, cfg);
        let _ = vc.enqueue(MemRequest::read(1, other_vault_addr, 32));
    }
}
