//! System configuration: topology, cost parameters, scheduling policy.

use qm_isa::CycleModel;

/// Where the kernel places newly forked contexts (`ifork`s and
/// continuation `rfork`s always stay on the forking PE; this policy
/// governs true-parallelism forks).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Placement {
    /// Rotate over all PEs — the kernel default (see the
    /// `ablation_placement` study: blind spreading beats load counting
    /// because a forking parent usually blocks right after forking).
    #[default]
    RoundRobin,
    /// The PE with the fewest ready/running contexts, breaking ties by
    /// the PE clock.
    LeastLoaded,
    /// Always on the forking PE (degenerates to uniprocessing; useful for
    /// ablation).
    Local,
}

/// Ring-bus and channel-transfer cost parameters (cycles).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BusCosts {
    /// Arbitration + transfer for a global-memory access whose home
    /// partition is the requester's own.
    pub mem_same_partition: u64,
    /// Base cost of a remote global-memory access.
    pub mem_remote_base: u64,
    /// Additional cost per ring segment crossed.
    pub mem_per_segment: u64,
    /// Channel transfer between contexts on the same PE (intraprocessor
    /// path, Fig. 5.17).
    pub chan_local: u64,
    /// Channel transfer within one bus partition.
    pub chan_same_partition: u64,
    /// Base cost of an interprocessor channel transfer across partitions
    /// (Fig. 5.16).
    pub chan_remote_base: u64,
    /// Additional channel cost per ring segment crossed.
    pub chan_per_segment: u64,
}

impl Default for BusCosts {
    fn default() -> Self {
        BusCosts {
            mem_same_partition: 2,
            mem_remote_base: 6,
            mem_per_segment: 2,
            chan_local: 2,
            chan_same_partition: 6,
            chan_remote_base: 10,
            chan_per_segment: 2,
        }
    }
}

/// Kernel service costs (cycles charged on top of the trap itself).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelCosts {
    /// Creating a context (allocate record + queue page + channels).
    pub fork: u64,
    /// Retiring a context.
    pub end: u64,
    /// Dispatching/waking bookkeeping per scheduling decision.
    pub dispatch: u64,
}

impl Default for KernelCosts {
    fn default() -> Self {
        KernelCosts { fork: 20, end: 8, dispatch: 4 }
    }
}

/// Full system configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SystemConfig {
    /// Number of processing elements (1–1024; the thesis hardware is
    /// 1–16, larger machines extrapolate its packaging).
    pub pes: usize,
    /// Number of bus partitions the PEs are split into (ring nodes).
    /// The thesis's Fig. 5.18 shows 4 PEs in 2 partitions.
    pub partitions: usize,
    /// Bus/channel costs.
    pub bus: BusCosts,
    /// Kernel costs.
    pub kernel: KernelCosts,
    /// Per-PE instruction cost model.
    pub cycle_model: CycleModel,
    /// Context placement policy.
    pub placement: Placement,
    /// Queue page size in words (power of two ≤ 256).
    pub queue_page_words: u32,
    /// Message-cache slots per channel (0 = pure rendezvous; the default
    /// models the §5.5 message-cache hardware, which accepts in-flight
    /// values so a sending context only blocks when the cache is full).
    pub channel_capacity: usize,
    /// Safety valve: abort after this many total instructions.
    pub max_instructions: u64,
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig {
            pes: 1,
            partitions: 1,
            bus: BusCosts::default(),
            kernel: KernelCosts::default(),
            cycle_model: CycleModel::default(),
            placement: Placement::default(),
            queue_page_words: 256,
            channel_capacity: 8,
            max_instructions: 500_000_000,
        }
    }
}

impl SystemConfig {
    /// A configuration with `pes` processing elements, two PEs per bus
    /// partition (the thesis's packaging), and default costs. The thesis
    /// hardware tops out at 16 PEs; configurations up to 1024 extrapolate
    /// its packaging for the big-machine sweeps, which run on the same
    /// serial scheduler as every other size.
    ///
    /// # Panics
    ///
    /// Panics unless `1 ≤ pes ≤ 1024`.
    #[must_use]
    pub fn with_pes(pes: usize) -> Self {
        assert!((1..=1024).contains(&pes), "1..=1024 PEs supported");
        SystemConfig { pes, partitions: pes.div_ceil(2), ..Self::default() }
    }

    /// Partition housing `pe`.
    #[must_use]
    pub fn partition_of(&self, pe: usize) -> usize {
        pe * self.partitions / self.pes
    }

    /// Ring distance (segments crossed) between two partitions.
    #[must_use]
    pub fn ring_distance(&self, a: usize, b: usize) -> u64 {
        let n = self.partitions;
        let d = a.abs_diff(b) % n;
        d.min(n - d) as u64
    }

    /// Cycles for a global-memory access from `pe` to an address homed at
    /// partition `home`.
    #[must_use]
    pub fn mem_cost(&self, pe: usize, home: usize) -> u64 {
        let here = self.partition_of(pe);
        let home = home % self.partitions.max(1);
        if here == home {
            self.bus.mem_same_partition
        } else {
            self.bus.mem_remote_base + self.bus.mem_per_segment * self.ring_distance(here, home)
        }
    }

    /// Cycles for a channel transfer between two PEs.
    #[must_use]
    pub fn chan_cost(&self, from_pe: usize, to_pe: usize) -> u64 {
        if from_pe == to_pe {
            return self.bus.chan_local;
        }
        let (a, b) = (self.partition_of(from_pe), self.partition_of(to_pe));
        if a == b {
            self.bus.chan_same_partition
        } else {
            self.bus.chan_remote_base + self.bus.chan_per_segment * self.ring_distance(a, b)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn with_pes_pairs_pes_into_partitions() {
        assert_eq!(SystemConfig::with_pes(1).partitions, 1);
        assert_eq!(SystemConfig::with_pes(4).partitions, 2);
        assert_eq!(SystemConfig::with_pes(8).partitions, 4);
    }

    #[test]
    fn partition_assignment_is_balanced() {
        let c = SystemConfig::with_pes(8);
        let parts: Vec<usize> = (0..8).map(|pe| c.partition_of(pe)).collect();
        assert_eq!(parts, vec![0, 0, 1, 1, 2, 2, 3, 3]);
    }

    #[test]
    fn ring_distance_wraps() {
        let c = SystemConfig::with_pes(8); // 4 partitions
        assert_eq!(c.ring_distance(0, 1), 1);
        assert_eq!(c.ring_distance(0, 3), 1, "ring wraps around");
        assert_eq!(c.ring_distance(0, 2), 2);
        assert_eq!(c.ring_distance(2, 2), 0);
    }

    #[test]
    fn channel_costs_grow_with_distance() {
        let c = SystemConfig::with_pes(8);
        let local = c.chan_cost(0, 0);
        let same_part = c.chan_cost(0, 1);
        let near = c.chan_cost(0, 2);
        let far = c.chan_cost(0, 4);
        assert!(local < same_part);
        assert!(same_part < near);
        assert!(near < far);
    }

    #[test]
    fn memory_cost_prefers_local_partition() {
        let c = SystemConfig::with_pes(4);
        assert!(c.mem_cost(0, 0) < c.mem_cost(0, 1));
    }

    #[test]
    #[should_panic(expected = "1..=1024")]
    fn too_many_pes_rejected() {
        let _ = SystemConfig::with_pes(1025);
    }

    #[test]
    fn big_machine_configs_accepted() {
        for pes in [17, 64, 256, 1024] {
            let c = SystemConfig::with_pes(pes);
            assert_eq!(c.partitions, pes.div_ceil(2));
            assert_eq!(c.partition_of(pes - 1), c.partitions - 1);
        }
    }
}
