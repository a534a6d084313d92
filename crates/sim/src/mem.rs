//! Data memory: TCDM scratchpad, main memory, and the per-cycle bank
//! arbiter.
//!
//! Functional state (byte contents) is separated from timing (bank grants).
//! Units request a bank through [`TcdmArbiter`] each cycle; a denied request
//! is retried the next cycle by the requesting unit.

use snitch_asm::layout;

/// Identifies a TCDM master port for arbitration and statistics. With a
/// multi-core cluster every per-core unit is a distinct port, so the arbiter
/// can attribute a stalled request to its requester.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TcdmPort {
    /// Integer-core load/store unit of hart `h`.
    CoreLsu(u8),
    /// FP-subsystem load/store unit of hart `h`.
    FpLsu(u8),
    /// SSR data mover `(hart, streamer 0..2)`.
    Ssr(u8, u8),
    /// Cluster DMA engine, source side.
    DmaSrc,
    /// Cluster DMA engine, destination side.
    DmaDst,
}

/// Per-cycle TCDM bank arbiter.
///
/// Banks are 64-bit wide and interleaved at 8-byte granularity (`addr >> 3`
/// selects the bank — matching the 64-bit banking the SSR and LSU data paths
/// assume). Each bank serves one request per cycle; the caller order in
/// `Cluster::step` establishes the fixed priority (hart 0 > hart 1 > ... and,
/// within a hart, core > FP LSU > SSR0..2; the DMA engine arbitrates last).
///
/// A denied request is retried by the requesting unit every cycle until
/// granted, but is counted as **one** conflict, not one per retry cycle —
/// `conflicts` counts distinct stalled requests, so the statistic stays
/// linear in the amount of contention rather than in its duration.
///
/// Grants are tracked as a generation-stamped table: a bank is taken this
/// cycle iff its stamp equals the current cycle generation, so
/// [`begin_cycle`](Self::begin_cycle) is a single counter increment instead
/// of clearing the whole grant table (the per-cycle cost the simulator hot
/// loop pays even on cycles with no memory traffic).
#[derive(Clone, Debug)]
pub struct TcdmArbiter {
    banks: usize,
    /// Per-bank grant stamp; the bank is granted iff `granted[b] == gen`.
    granted: Vec<u64>,
    /// Current cycle generation (starts at 1 so a zeroed table is all-free).
    gen: u64,
    conflicts: u64,
    /// Ports whose in-flight request has already been counted as a conflict
    /// (cleared when the port's retry is finally granted).
    stalled: Vec<TcdmPort>,
}

impl TcdmArbiter {
    /// Creates an arbiter for `banks` banks.
    #[must_use]
    pub fn new(banks: usize) -> Self {
        assert!(banks.is_power_of_two(), "bank count must be a power of two");
        TcdmArbiter { banks, granted: vec![0; banks], gen: 1, conflicts: 0, stalled: Vec::new() }
    }

    /// Invalidates all grants at the start of a cycle by advancing the grant
    /// generation. (Stall tracking persists: a request denied last cycle
    /// that retries this cycle is the same request.)
    pub fn begin_cycle(&mut self) {
        self.gen += 1;
    }

    /// Restores the just-constructed state, reusing the grant table — the
    /// allocation-free equivalent of `TcdmArbiter::new(banks)`.
    pub fn reset(&mut self) {
        self.granted.fill(0);
        self.gen = 1;
        self.conflicts = 0;
        self.stalled.clear();
    }

    /// The bank index serving `addr`.
    #[must_use]
    pub fn bank_of(&self, addr: u32) -> usize {
        ((addr >> 3) as usize) & (self.banks - 1)
    }

    /// Requests the bank serving `addr` for `port` this cycle. Returns
    /// whether the request was granted; a denied request is counted as one
    /// conflict the first time it is denied (retries of the same stalled
    /// request do not re-count).
    pub fn request(&mut self, port: TcdmPort, addr: u32) -> bool {
        let bank = self.bank_of(addr);
        if self.granted[bank] == self.gen {
            if !self.stalled.contains(&port) {
                self.conflicts += 1;
                self.stalled.push(port);
            }
            false
        } else {
            self.granted[bank] = self.gen;
            if let Some(i) = self.stalled.iter().position(|p| *p == port) {
                self.stalled.swap_remove(i);
            }
            true
        }
    }

    /// Returns the bank serving `addr` to the free pool for the remainder of
    /// the cycle. Used by multi-port units (the DMA engine) that must hold
    /// *all* their banks to make progress: a granted side whose partner was
    /// denied gives its bank back instead of blocking it for a transfer that
    /// cannot happen this cycle.
    pub fn release(&mut self, addr: u32) {
        let bank = self.bank_of(addr);
        debug_assert_eq!(self.granted[bank], self.gen, "release of an ungranted bank");
        self.granted[bank] = 0;
    }

    /// Total distinct stalled requests so far.
    #[must_use]
    pub fn conflicts(&self) -> u64 {
        self.conflicts
    }
}

/// Byte-addressable cluster memory (functional contents).
///
/// The TCDM is dense; [`clear`](Self::clear) zeroes its dirty watermark.
/// Main memory, the L2 copy and the peer windows are *prefix-backed*: backed
/// only up to the highest offset written, reading zero past it, so each
/// costs in proportion to that offset rather than to its address space.
#[derive(Clone, Debug)]
pub struct Memory {
    tcdm: Vec<u8>,
    main: Vec<u8>,
    /// Local copy of the shared L2 region. In a multi-cluster `System` the
    /// canonical contents live in the `System`; this buffer is synced in
    /// before the cluster runs and the self-written range is merged back out
    /// afterwards. In a standalone single-cluster run it *is* the L2.
    l2: Vec<u8>,
    /// Snapshots of remote clusters' TCDMs backing the alias windows, one
    /// per cluster of the system (none until
    /// [`enable_peers`](Self::enable_peers)); the own-cluster entry stays
    /// empty because the own window routes to `tcdm` directly.
    peers: Vec<Vec<u8>>,
    /// Which peer entry is this cluster itself.
    self_cluster: usize,
    /// Dirty byte range of `tcdm` (`lo..hi` offsets; empty when `lo >= hi`).
    tcdm_dirty: (usize, usize),
    /// Bytes of `l2` written *by this cluster's units* (not by sync-in):
    /// the range the `System` merges back into the canonical L2.
    l2_touched: (usize, usize),
    /// Per-peer self-written ranges (remote stores the `System` must apply
    /// to the real owner's TCDM).
    peers_touched: Vec<(usize, usize)>,
}

/// An empty watermark range.
const CLEAN: (usize, usize) = (usize::MAX, 0);

/// Error for an access outside the mapped regions.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct MemFault {
    /// Faulting byte address.
    pub addr: u32,
}

impl std::fmt::Display for MemFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "access to unmapped address {:#010x}", self.addr)
    }
}

impl std::error::Error for MemFault {}

impl Memory {
    /// Creates zeroed memory.
    #[must_use]
    pub fn new() -> Self {
        Memory {
            tcdm: vec![0; layout::TCDM_SIZE as usize],
            main: Vec::new(),
            l2: Vec::new(),
            peers: Vec::new(),
            self_cluster: 0,
            tcdm_dirty: CLEAN,
            l2_touched: CLEAN,
            peers_touched: Vec::new(),
        }
    }

    /// Loads initial images (from an assembled program).
    pub fn load_images(&mut self, tcdm: &[u8], main: &[u8]) {
        self.tcdm[..tcdm.len()].copy_from_slice(tcdm);
        widen(&mut self.tcdm_dirty, 0, tcdm.len());
        store(&mut self.main, 0, main);
    }

    /// Loads the initial L2 image. Counts as sync-in, not as a write by
    /// this cluster's units.
    pub fn load_l2(&mut self, l2: &[u8]) {
        store(&mut self.l2, 0, l2);
    }

    /// Maps the alias windows of an `clusters`-cluster system, identifying
    /// this memory as cluster `self_cluster`. The own window routes straight
    /// to the TCDM; remote windows get snapshot buffers the `System` fills
    /// before each run.
    ///
    /// # Panics
    ///
    /// Panics if `self_cluster >= clusters` or `clusters` exceeds
    /// [`layout::MAX_CLUSTERS`].
    pub fn enable_peers(&mut self, clusters: usize, self_cluster: usize) {
        assert!(self_cluster < clusters && clusters <= layout::MAX_CLUSTERS);
        self.self_cluster = self_cluster;
        self.peers = vec![Vec::new(); clusters];
        self.peers_touched = vec![CLEAN; clusters];
    }

    /// Zeroes all written contents, keeping the allocations. After `clear`
    /// plus `load_images` the memory is indistinguishable from a freshly
    /// constructed one; the cost is proportional to what a job wrote.
    pub fn clear(&mut self) {
        let (lo, hi) = std::mem::replace(&mut self.tcdm_dirty, CLEAN);
        if lo < hi {
            self.tcdm[lo..hi].fill(0);
        }
        self.main.clear();
        self.l2.clear();
        self.peers.iter_mut().for_each(Vec::clear);
        self.l2_touched = CLEAN;
        self.peers_touched.fill(CLEAN);
    }

    /// Whether cluster `k`'s alias window exists in this system.
    fn window_mapped(&self, k: usize) -> bool {
        k == self.self_cluster || k < self.peers.len()
    }

    /// Whether `addr..addr+len` is mapped.
    #[must_use]
    pub fn is_mapped(&self, addr: u32, len: u32) -> bool {
        let end = addr.wrapping_add(len.saturating_sub(1));
        if (layout::is_tcdm(addr) && layout::is_tcdm(end))
            || (layout::is_main(addr) && layout::is_main(end))
            || (layout::is_l2(addr) && layout::is_l2(end))
        {
            return true;
        }
        match (layout::alias_cluster(addr), layout::alias_cluster(end)) {
            (Some((k, _)), Some((k2, _))) => k == k2 && self.window_mapped(k),
            _ => false,
        }
    }

    /// Routes an in-bounds alias access to its backing buffer index, or
    /// faults when the window's cluster does not exist in this system.
    fn alias_target(&self, addr: u32, len: u32) -> Result<Option<(usize, usize)>, MemFault> {
        let (Some((k, off)), Some((k2, _))) =
            (layout::alias_cluster(addr), layout::alias_cluster(addr + len - 1))
        else {
            return Ok(None);
        };
        if k != k2 || !self.window_mapped(k) {
            return Err(MemFault { addr });
        }
        Ok(Some((k, off as usize)))
    }

    /// The bytes of `addr..addr+len`, cut short where a prefix ends.
    fn slice(&self, addr: u32, len: u32) -> Result<&[u8], MemFault> {
        if layout::is_tcdm(addr) && layout::is_tcdm(addr + len - 1) {
            let off = (addr - layout::TCDM_BASE) as usize;
            Ok(&self.tcdm[off..off + len as usize])
        } else if layout::is_main(addr) && layout::is_main(addr + len - 1) {
            Ok(backed(&self.main, (addr - layout::MAIN_BASE) as usize, len as usize))
        } else if layout::is_l2(addr) && layout::is_l2(addr + len - 1) {
            Ok(backed(&self.l2, (addr - layout::L2_BASE) as usize, len as usize))
        } else if let Some((k, off)) = self.alias_target(addr, len)? {
            Ok(if k == self.self_cluster {
                &self.tcdm[off..off + len as usize]
            } else {
                backed(&self.peers[k], off, len as usize)
            })
        } else {
            Err(MemFault { addr })
        }
    }

    fn slice_mut(&mut self, addr: u32, len: u32) -> Result<&mut [u8], MemFault> {
        if layout::is_tcdm(addr) && layout::is_tcdm(addr + len - 1) {
            let off = (addr - layout::TCDM_BASE) as usize;
            widen(&mut self.tcdm_dirty, off, off + len as usize);
            Ok(&mut self.tcdm[off..off + len as usize])
        } else if layout::is_main(addr) && layout::is_main(addr + len - 1) {
            Ok(backing(&mut self.main, (addr - layout::MAIN_BASE) as usize, len as usize))
        } else if layout::is_l2(addr) && layout::is_l2(addr + len - 1) {
            let off = (addr - layout::L2_BASE) as usize;
            widen(&mut self.l2_touched, off, off + len as usize);
            Ok(backing(&mut self.l2, off, len as usize))
        } else if let Some((k, off)) = self.alias_target(addr, len)? {
            if k == self.self_cluster {
                widen(&mut self.tcdm_dirty, off, off + len as usize);
                Ok(&mut self.tcdm[off..off + len as usize])
            } else {
                widen(&mut self.peers_touched[k], off, off + len as usize);
                Ok(backing(&mut self.peers[k], off, len as usize))
            }
        } else {
            Err(MemFault { addr })
        }
    }

    /// Bytes currently backed, over every region.
    #[cfg(test)]
    pub(crate) fn backed_bytes(&self) -> usize {
        [&self.tcdm, &self.main, &self.l2].into_iter().chain(&self.peers).map(Vec::len).sum()
    }

    // ---- System synchronisation (multi-cluster runs) ----

    /// Overwrites `l2[off..off+data.len()]` with canonical bytes from the
    /// `System`. Does not count toward the cluster's own written range.
    pub fn sync_l2_in(&mut self, off: usize, data: &[u8]) {
        store(&mut self.l2, off, data);
    }

    /// Overwrites peer `k`'s snapshot window with that cluster's actual TCDM
    /// bytes (same sync-in semantics as [`sync_l2_in`](Self::sync_l2_in)).
    pub fn sync_peer_in(&mut self, k: usize, off: usize, data: &[u8]) {
        store(&mut self.peers[k], off, data);
    }

    /// The `l2` range written by this cluster's own units since the last
    /// take, as `(offset, bytes)`; resets the watermark.
    pub fn take_l2_touched(&mut self) -> Option<(usize, &[u8])> {
        let (lo, hi) = std::mem::replace(&mut self.l2_touched, CLEAN);
        (lo < hi).then(|| (lo, &self.l2[lo..hi]))
    }

    /// The bytes this cluster stored into peer `k`'s alias window since the
    /// last take (to be applied to the owner's TCDM); resets the watermark.
    pub fn take_peer_touched(&mut self, k: usize) -> Option<(usize, &[u8])> {
        let (lo, hi) = std::mem::replace(&mut self.peers_touched[k], CLEAN);
        (lo < hi).then(|| (lo, &self.peers[k][lo..hi]))
    }

    /// The TCDM range written so far (images + stores), for the `System`'s
    /// peer-snapshot refresh.
    #[must_use]
    pub fn tcdm_written(&self) -> Option<(usize, &[u8])> {
        let (lo, hi) = self.tcdm_dirty;
        (lo < hi).then(|| (lo, &self.tcdm[lo..hi]))
    }

    /// Overwrites `tcdm[off..]` with bytes another cluster stored through
    /// this cluster's alias window.
    pub fn apply_remote_tcdm(&mut self, off: usize, data: &[u8]) {
        widen(&mut self.tcdm_dirty, off, off + data.len());
        self.tcdm[off..off + data.len()].copy_from_slice(data);
    }

    /// Reads `len` (1, 2, 4 or 8) bytes as a little-endian value.
    ///
    /// # Errors
    ///
    /// Returns [`MemFault`] for unmapped addresses.
    pub fn read(&self, addr: u32, len: u32) -> Result<u64, MemFault> {
        let s = self.slice(addr, len)?;
        Ok(match *s {
            [b0] => u64::from(b0),
            [b0, b1] => u64::from(u16::from_le_bytes([b0, b1])),
            [b0, b1, b2, b3] => u64::from(u32::from_le_bytes([b0, b1, b2, b3])),
            [b0, b1, b2, b3, b4, b5, b6, b7] => {
                u64::from_le_bytes([b0, b1, b2, b3, b4, b5, b6, b7])
            }
            _ => {
                let mut v = 0u64;
                for (i, b) in s.iter().enumerate() {
                    v |= u64::from(*b) << (8 * i);
                }
                v
            }
        })
    }

    /// Writes `len` (1, 2, 4 or 8) low-order bytes of `value`.
    ///
    /// # Errors
    ///
    /// Returns [`MemFault`] for unmapped addresses.
    pub fn write(&mut self, addr: u32, len: u32, value: u64) -> Result<(), MemFault> {
        let s = self.slice_mut(addr, len)?;
        let bytes = value.to_le_bytes();
        match s.len() {
            8 => s.copy_from_slice(&bytes),
            n => s.copy_from_slice(&bytes[..n]),
        }
        Ok(())
    }

    /// Convenience: reads an `f64`.
    ///
    /// # Errors
    ///
    /// Returns [`MemFault`] for unmapped addresses.
    pub fn read_f64(&self, addr: u32) -> Result<f64, MemFault> {
        Ok(f64::from_bits(self.read(addr, 8)?))
    }

    /// Convenience: reads an `f32`.
    ///
    /// # Errors
    ///
    /// Returns [`MemFault`] for unmapped addresses.
    pub fn read_f32(&self, addr: u32) -> Result<f32, MemFault> {
        Ok(f32::from_bits(self.read(addr, 4)? as u32))
    }

    /// Convenience: reads a `u32`.
    ///
    /// # Errors
    ///
    /// Returns [`MemFault`] for unmapped addresses.
    pub fn read_u32(&self, addr: u32) -> Result<u32, MemFault> {
        Ok(self.read(addr, 4)? as u32)
    }
}

impl Default for Memory {
    fn default() -> Self {
        Memory::new()
    }
}

/// Widens a dirty watermark range to cover `lo..hi`.
fn widen(range: &mut (usize, usize), lo: usize, hi: usize) {
    if lo < range.0 {
        range.0 = lo;
    }
    if hi > range.1 {
        range.1 = hi;
    }
}

/// The backed part of `buf[off..off+len]` in a prefix-backed buffer.
pub(crate) fn backed(buf: &[u8], off: usize, len: usize) -> &[u8] {
    buf.get(off..(off + len).min(buf.len())).unwrap_or_default()
}

/// `buf[off..off+len]` of a prefix-backed buffer, first zero-extending the
/// buffer to cover the range.
fn backing(buf: &mut Vec<u8>, off: usize, len: usize) -> &mut [u8] {
    if buf.len() < off + len {
        buf.resize(off + len, 0);
    }
    &mut buf[off..off + len]
}

/// Copies `data` into a prefix-backed buffer at `off`.
pub(crate) fn store(buf: &mut Vec<u8>, off: usize, data: &[u8]) {
    backing(buf, off, data.len()).copy_from_slice(data);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_write_roundtrip_tcdm() {
        let mut m = Memory::new();
        m.write(layout::TCDM_BASE + 16, 8, 0x1122_3344_5566_7788).unwrap();
        assert_eq!(m.read(layout::TCDM_BASE + 16, 8).unwrap(), 0x1122_3344_5566_7788);
        assert_eq!(m.read(layout::TCDM_BASE + 16, 4).unwrap(), 0x5566_7788);
        assert_eq!(m.read(layout::TCDM_BASE + 20, 4).unwrap(), 0x1122_3344);
        assert_eq!(m.read(layout::TCDM_BASE + 16, 1).unwrap(), 0x88);
    }

    #[test]
    fn read_write_roundtrip_main() {
        let mut m = Memory::new();
        m.write(layout::MAIN_BASE, 4, 0xdead_beef).unwrap();
        assert_eq!(m.read_u32(layout::MAIN_BASE).unwrap(), 0xdead_beef);
    }

    #[test]
    fn clear_zeroes_exactly_what_was_written() {
        let mut m = Memory::new();
        // Dirty both regions through every write path: direct writes and
        // image loads.
        m.write(layout::TCDM_BASE + 1000, 8, u64::MAX).unwrap();
        m.write(layout::TCDM_BASE + 64 * 1024, 4, 0xdead_beef).unwrap();
        m.write(layout::MAIN_BASE + 12_000_000, 8, 42).unwrap();
        m.load_images(&[1, 2, 3], &[4, 5]);
        m.clear();
        // Everything reads back zero, wherever it was written.
        for addr in [
            layout::TCDM_BASE,
            layout::TCDM_BASE + 1000,
            layout::TCDM_BASE + 64 * 1024,
            layout::MAIN_BASE,
            layout::MAIN_BASE + 12_000_000,
        ] {
            assert_eq!(m.read(addr, 8).unwrap(), 0, "{addr:#x} not cleared");
        }
        // And a cleared memory behaves like a fresh one for new writes.
        m.write(layout::TCDM_BASE + 8, 8, 7).unwrap();
        m.clear();
        assert_eq!(m.read(layout::TCDM_BASE + 8, 8).unwrap(), 0);
    }

    #[test]
    fn unmapped_access_faults() {
        let m = Memory::new();
        assert!(m.read(0x0300_0000, 4).is_err());
        assert!(m.read(layout::TCDM_BASE + layout::TCDM_SIZE - 2, 8).is_err());
        // Beyond the backed part of an alias window.
        assert!(m.read(layout::CLUSTER_ALIAS_BASE + layout::TCDM_SIZE, 4).is_err());
        // A remote cluster's window faults until peers are enabled.
        assert!(m.read(layout::tcdm_alias_base(1), 4).is_err());
    }

    #[test]
    fn l2_round_trips_and_clears() {
        let mut m = Memory::new();
        m.write(layout::L2_BASE + 40, 8, 0xfeed_f00d).unwrap();
        assert_eq!(m.read(layout::L2_BASE + 40, 8).unwrap(), 0xfeed_f00d);
        assert_eq!(m.take_l2_touched().map(|(off, b)| (off, b.len())), Some((40, 8)));
        assert_eq!(m.take_l2_touched(), None, "take resets the watermark");
        m.clear();
        assert_eq!(m.read(layout::L2_BASE + 40, 8).unwrap(), 0);
    }

    #[test]
    fn sync_in_is_not_a_local_write() {
        let mut m = Memory::new();
        m.load_l2(&[9; 16]);
        m.sync_l2_in(64, &[7; 8]);
        assert_eq!(m.read(layout::L2_BASE, 8).unwrap(), 0x0909_0909_0909_0909);
        assert_eq!(m.read(layout::L2_BASE + 64, 8).unwrap(), 0x0707_0707_0707_0707);
        assert_eq!(m.take_l2_touched(), None, "sync-in must not mark the merge-out range");
        m.clear();
        assert_eq!(m.read(layout::L2_BASE, 8).unwrap(), 0, "sync-in still counts for clear");
        assert_eq!(m.read(layout::L2_BASE + 64, 8).unwrap(), 0);
    }

    #[test]
    fn own_alias_window_routes_to_own_tcdm() {
        let mut m = Memory::new();
        m.write(layout::tcdm_alias_base(0) + 24, 8, 0xabcd).unwrap();
        assert_eq!(m.read(layout::TCDM_BASE + 24, 8).unwrap(), 0xabcd);
        // ... in an enabled multi-cluster system too, at the self index.
        let mut m = Memory::new();
        m.enable_peers(4, 2);
        m.write(layout::tcdm_alias_base(2) + 8, 4, 77).unwrap();
        assert_eq!(m.read(layout::TCDM_BASE + 8, 4).unwrap(), 77);
    }

    #[test]
    fn peer_windows_snapshot_and_track_remote_stores() {
        let mut m = Memory::new();
        m.enable_peers(2, 0);
        // Mapped by the cluster count, before any sync: unsynced bytes read 0.
        assert!(m.is_mapped(layout::tcdm_alias_base(1), 8));
        assert_eq!(m.read(layout::tcdm_alias_base(1) + 16, 8).unwrap(), 0);
        m.sync_peer_in(1, 0, &[1, 2, 3, 4]);
        assert_eq!(m.read(layout::tcdm_alias_base(1), 4).unwrap(), 0x0403_0201);
        assert_eq!(m.take_peer_touched(1), None, "snapshot fill is not a remote store");
        m.write(layout::tcdm_alias_base(1) + 2, 2, 0xbeef).unwrap();
        assert_eq!(
            m.take_peer_touched(1).map(|(off, b)| (off, b.to_vec())),
            Some((2, vec![0xef, 0xbe]))
        );
        // Windows of clusters outside the system stay unmapped.
        assert!(m.read(layout::tcdm_alias_base(2), 4).is_err());
        assert!(!m.is_mapped(layout::tcdm_alias_base(2), 4));
        assert!(m.is_mapped(layout::tcdm_alias_base(1), 4));
    }

    #[test]
    fn reads_past_the_backed_prefix_are_zero() {
        let mut m = Memory::new();
        m.enable_peers(2, 0);
        let peer = layout::tcdm_alias_base(1);
        for base in [layout::MAIN_BASE, layout::L2_BASE, peer] {
            // Unbacked: nothing written yet.
            assert_eq!(m.read(base + 4096, 8).unwrap(), 0, "{base:#x} unbacked");
            // Back 12 bytes; a read straddling the end keeps the backed
            // low bytes and zero-fills the rest.
            m.write(base, 8, u64::MAX).unwrap();
            m.write(base + 8, 4, 0x1122_3344).unwrap();
            assert_eq!(m.read(base + 8, 8).unwrap(), 0x1122_3344, "{base:#x} straddle");
            assert_eq!(m.read(base + 10, 4).unwrap(), 0x1122, "{base:#x} straddle");
            assert_eq!(m.read(base + 12, 8).unwrap(), 0, "{base:#x} at the end");
            assert_eq!(m.read(base + 0x1_0000, 4).unwrap(), 0, "{base:#x} far past the end");
        }
        // Only the written bytes are backed.
        assert_eq!(m.backed_bytes(), layout::TCDM_SIZE as usize + 3 * 12);
    }

    #[test]
    fn clear_reads_back_zero_and_keeps_the_capacity() {
        let mut m = Memory::new();
        m.enable_peers(2, 1);
        let peer = layout::tcdm_alias_base(0);
        for base in [layout::MAIN_BASE, layout::L2_BASE, peer] {
            m.write(base + 64 * 1024, 8, 0xfeed).unwrap();
        }
        let capacity = |m: &Memory| (m.main.capacity(), m.l2.capacity(), m.peers[0].capacity());
        let before = capacity(&m);
        m.clear();
        for base in [layout::MAIN_BASE, layout::L2_BASE, peer] {
            assert_eq!(m.read(base + 64 * 1024, 8).unwrap(), 0, "{base:#x} not cleared");
        }
        assert_eq!(m.backed_bytes(), layout::TCDM_SIZE as usize, "only the TCDM stays backed");
        assert_eq!(capacity(&m), before, "clear keeps every allocation");
        assert_eq!(m.take_peer_touched(0), None);
        assert_eq!(m.take_l2_touched(), None);
    }

    #[test]
    fn f64_roundtrip() {
        let mut m = Memory::new();
        m.write(layout::TCDM_BASE, 8, std::f64::consts::PI.to_bits()).unwrap();
        assert_eq!(m.read_f64(layout::TCDM_BASE).unwrap(), std::f64::consts::PI);
    }

    const P0: TcdmPort = TcdmPort::CoreLsu(0);
    const P1: TcdmPort = TcdmPort::CoreLsu(1);

    #[test]
    fn arbiter_grants_one_per_bank() {
        let mut a = TcdmArbiter::new(4);
        a.begin_cycle();
        assert!(a.request(P0, layout::TCDM_BASE)); // bank 0
        assert!(a.request(P0, layout::TCDM_BASE + 8)); // bank 1
        assert!(!a.request(P1, layout::TCDM_BASE + 4 * 8)); // bank 0 again: conflict
        assert_eq!(a.conflicts(), 1);
        a.begin_cycle();
        assert!(a.request(P1, layout::TCDM_BASE + 4 * 8)); // free again
    }

    #[test]
    fn stalled_request_counts_one_conflict_across_retries() {
        // Port 1 loses bank 0 to port 0 for five consecutive cycles, then
        // finally wins: that is ONE stalled request, not five conflicts.
        let mut a = TcdmArbiter::new(32);
        for _ in 0..5 {
            a.begin_cycle();
            assert!(a.request(P0, layout::TCDM_BASE));
            assert!(!a.request(P1, layout::TCDM_BASE));
        }
        a.begin_cycle();
        assert!(a.request(P1, layout::TCDM_BASE), "uncontended retry is granted");
        assert_eq!(a.conflicts(), 1, "retries of one stalled request must not re-count");
    }

    #[test]
    fn two_stream_conflict_count_is_pinned() {
        // Regression: two SSR-style streams walking the TCDM with 8-byte
        // stride, offset so they collide on every second element. Stream A
        // (higher priority) always wins; stream B conflicts once per
        // colliding element and then drains it the next cycle.
        // Pattern per element pair: cycle k — A@bank b granted, B@bank b
        // denied (1 conflict); cycle k+1 — B@bank b granted (A idle).
        let mut a = TcdmArbiter::new(32);
        let sa = TcdmPort::Ssr(0, 0);
        let sb = TcdmPort::Ssr(1, 0);
        let mut granted_b = 0;
        for elem in 0..8u32 {
            a.begin_cycle();
            assert!(a.request(sa, layout::TCDM_BASE + elem * 8));
            assert!(!a.request(sb, layout::TCDM_BASE + elem * 8));
            a.begin_cycle();
            assert!(a.request(sb, layout::TCDM_BASE + elem * 8));
            granted_b += 1;
        }
        assert_eq!(granted_b, 8);
        assert_eq!(a.conflicts(), 8, "exactly one conflict per colliding element");
        // Distinct ports stall independently: both denied in one cycle is
        // two conflicts.
        a.begin_cycle();
        assert!(a.request(P0, layout::TCDM_BASE));
        assert!(!a.request(sa, layout::TCDM_BASE));
        assert!(!a.request(sb, layout::TCDM_BASE));
        assert_eq!(a.conflicts(), 10);
    }

    #[test]
    fn released_bank_is_grantable_again_within_the_cycle() {
        let mut a = TcdmArbiter::new(4);
        a.begin_cycle();
        assert!(a.request(P0, layout::TCDM_BASE));
        a.release(layout::TCDM_BASE);
        assert!(a.request(P1, layout::TCDM_BASE), "released bank is free again");
        assert_eq!(a.conflicts(), 0, "a release is not a conflict");
        // The new grant is a real one: a third request conflicts.
        assert!(!a.request(TcdmPort::Ssr(0, 0), layout::TCDM_BASE));
        assert_eq!(a.conflicts(), 1);
    }

    #[test]
    fn grant_generations_reset_every_cycle() {
        // Many begin_cycle calls with no fill: grants never leak across
        // cycles (the generation-counter equivalent of clearing the table).
        let mut a = TcdmArbiter::new(4);
        for _ in 0..1000 {
            a.begin_cycle();
            assert!(a.request(P0, layout::TCDM_BASE));
            assert!(!a.request(P1, layout::TCDM_BASE));
        }
        a.begin_cycle();
        assert!(a.request(P1, layout::TCDM_BASE), "fresh cycle frees every bank");
    }

    #[test]
    fn bank_interleave_is_8_bytes() {
        let a = TcdmArbiter::new(32);
        assert_eq!(a.bank_of(layout::TCDM_BASE), a.bank_of(layout::TCDM_BASE + 7));
        assert_ne!(a.bank_of(layout::TCDM_BASE), a.bank_of(layout::TCDM_BASE + 8));
        assert_eq!(a.bank_of(layout::TCDM_BASE), a.bank_of(layout::TCDM_BASE + 32 * 8));
    }
}
