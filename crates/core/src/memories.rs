//! The hybrid DRAM + NVMM main memory behind one [`MemoryPort`].
//!
//! Routes block reads and writes to the right controller by physical
//! region (paper Fig. 4: flat address space split between DRAM and NVMM,
//! each with its own controller).

use bbb_cache::MemoryPort;
use bbb_mem::{ByteStore, DramController, NvmImage, NvmmController, PAGE_BYTES};
use bbb_sim::{Addr, AddressMap, BlockAddr, Cycle, SimConfig, Stats, BLOCK_BYTES};

/// Both memory controllers plus the address map that routes between them.
#[derive(Debug, Clone)]
pub struct Memories {
    dram: DramController,
    nvmm: NvmmController,
    map: AddressMap,
}

impl Memories {
    /// Builds the memory system for a machine configuration.
    #[must_use]
    pub fn new(cfg: &SimConfig) -> Self {
        Self {
            dram: DramController::new(cfg.mem.clone()),
            nvmm: NvmmController::new(cfg.mem.clone()),
            map: AddressMap::new(cfg),
        }
    }

    /// The machine's address map.
    #[must_use]
    pub fn map(&self) -> &AddressMap {
        &self.map
    }

    /// Direct access to the NVMM controller (bbPB drains, crash imaging).
    #[must_use]
    pub fn nvmm(&self) -> &NvmmController {
        &self.nvmm
    }

    /// Mutable access to the NVMM controller.
    pub fn nvmm_mut(&mut self) -> &mut NvmmController {
        &mut self.nvmm
    }

    /// Warm start without simulated time: each of `src`'s pages at
    /// `bases` becomes the DRAM or NVMM media page there (split at
    /// [`AddressMap::nvmm_base`]), shared copy-on-write rather than copied.
    ///
    /// # Panics
    ///
    /// If a page reaches past [`AddressMap::end`] ("load outside memory").
    pub fn share_pages(&mut self, src: &ByteStore, bases: impl IntoIterator<Item = Addr>) {
        for base in bases {
            assert!(
                base + PAGE_BYTES as u64 <= self.map.end(),
                "load outside memory"
            );
            if base < self.map.nvmm_base() {
                self.dram.share_page(src, base);
            } else {
                self.nvmm.share_page(src, base);
            }
        }
    }

    /// The post-crash NVMM image (media + battery-backed WPQ).
    #[must_use]
    pub fn crash_image(&self) -> NvmImage {
        self.nvmm.crash_image()
    }

    /// Merged statistics from both controllers.
    #[must_use]
    pub fn stats(&self) -> Stats {
        let mut s = self.dram.stats();
        s.merge(&self.nvmm.stats());
        s
    }
}

impl MemoryPort for Memories {
    fn read_block(&mut self, now: Cycle, block: BlockAddr) -> (Cycle, [u8; BLOCK_BYTES]) {
        if self.map.is_nvmm(block.base()) {
            self.nvmm.read(now, block)
        } else {
            self.dram.read(now, block)
        }
    }

    fn write_block(&mut self, now: Cycle, block: BlockAddr, data: [u8; BLOCK_BYTES]) -> Cycle {
        if self.map.is_nvmm(block.base()) {
            self.nvmm.write(now, block, data).persist
        } else {
            self.dram.write(now, block, data)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mems() -> Memories {
        Memories::new(&SimConfig::small_for_tests())
    }

    #[test]
    fn routes_by_region() {
        let mut m = mems();
        let dram_block = BlockAddr::from_index(0);
        let nvmm_block = BlockAddr::containing(m.map().persistent_base());

        m.write_block(0, dram_block, [1; 64]);
        m.write_block(0, nvmm_block, [2; 64]);
        assert_eq!(m.stats().get("dram.writes"), 1);
        assert_eq!(m.stats().get("nvmm.writes"), 1);

        let (_, d) = m.read_block(0, dram_block);
        assert_eq!(d, [1; 64]);
        let (_, n) = m.read_block(0, nvmm_block);
        assert_eq!(n, [2; 64]);
    }

    #[test]
    fn nvmm_write_persist_is_wpq_accept() {
        let mut m = mems();
        let b = BlockAddr::containing(m.map().persistent_base());
        let persist = m.write_block(42, b, [9; 64]);
        assert_eq!(persist, 42, "WPQ accepts immediately when empty");
    }

    #[test]
    fn share_routes_and_skips_counters() {
        let mut m = mems();
        let nv = BlockAddr::containing(m.map().persistent_base());
        let dram = BlockAddr::from_index(1);
        let mut src = ByteStore::new();
        src.write_block(nv, &[7; 64]);
        src.write_block(dram, &[8; 64]);
        m.share_pages(&src, [nv.base(), 0]);
        assert_eq!(m.stats().get("nvmm.writes"), 0);
        assert_eq!(m.stats().get("dram.writes"), 0);
        assert_eq!(m.stats().get("nvmm.media_pages"), 1);
        assert_eq!(m.crash_image().read_block(nv), [7; 64]);
        assert_eq!(m.read_block(0, dram).1, [8; 64]);
    }
}
