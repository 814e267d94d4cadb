//! [`DeviceProfile`]: the static description a fleet builds each backend
//! from — topology family, ZZ characterization, decoherence times and
//! gate durations.
//!
//! The three shipped profiles span the device regimes of the source
//! papers: the paper's own fixed-coupling grid, a tunable-coupler device
//! whose residual ZZ is an order of magnitude weaker (arXiv 1810.04182
//! reports sub-kHz to tens-of-kHz residuals when the coupler is parked
//! at its zero), and a heavy-hex lattice with strong always-on ZZ of the
//! kind cancellation-drive experiments target (arXiv 2106.00675). They
//! differ in topology *family*, coupling strength *distribution* and
//! coherence budget, so dispatch decisions between them have real
//! fidelity consequences rather than being tie-breaks.

use zz_sched::GateDurations;
use zz_sim::density::Decoherence;
use zz_sim::khz;
use zz_topology::Topology;

/// Which lattice a device is laid out on. A family plus its size
/// parameters is enough to rebuild the topology, so profiles stay plain
/// data.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TopologyFamily {
    /// A `rows × cols` nearest-neighbor grid (the paper's layout).
    Grid {
        /// Grid rows.
        rows: usize,
        /// Grid columns.
        cols: usize,
    },
    /// An IBM-style heavy-hex lattice of the given distance.
    HeavyHex {
        /// Code distance (odd; 3 → 18 qubits, 21 → 1000+).
        distance: usize,
    },
}

impl TopologyFamily {
    /// Builds the concrete topology.
    pub fn build(&self) -> Topology {
        match *self {
            TopologyFamily::Grid { rows, cols } => Topology::grid(rows, cols),
            TopologyFamily::HeavyHex { distance } => Topology::heavy_hex(distance),
        }
    }
}

/// The static characterization a fleet backend is built from. The
/// `lambda_*` fields are the device's *nominal* (epoch-0) ZZ strength
/// distribution; the fleet's drift model evolves the mean away from it
/// over epochs.
#[derive(Clone, Debug)]
pub struct DeviceProfile {
    /// Unique device name (also the artifact-shard directory and the
    /// per-device metric label).
    pub name: String,
    /// Lattice family and size.
    pub family: TopologyFamily,
    /// Nominal mean ZZ coupling strength (rad/ns).
    pub lambda_mean: f64,
    /// Nominal ZZ strength standard deviation (rad/ns).
    pub lambda_std: f64,
    /// Relaxation time `T1` (µs).
    pub t1_us: f64,
    /// Dephasing time `T2` (µs), at most `2·T1`.
    pub t2_us: f64,
    /// Gate-duration table measured on this device.
    pub durations: GateDurations,
}

impl DeviceProfile {
    /// The source paper's device: the 3×4 grid with
    /// `λ ~ N(2π·200 kHz, (2π·50 kHz)²)` fixed couplings and 20 ns
    /// pulses.
    pub fn paper_grid() -> Self {
        DeviceProfile {
            name: "paper-grid".into(),
            family: TopologyFamily::Grid { rows: 3, cols: 4 },
            lambda_mean: khz(200.0),
            lambda_std: khz(50.0),
            t1_us: 85.0,
            t2_us: 110.0,
            durations: GateDurations::standard(),
        }
    }

    /// A tunable-coupler device in the style of arXiv 1810.04182: same
    /// 3×4 grid, but the couplers parked near their ZZ zero leave an
    /// order-of-magnitude weaker residual (`λ ~ N(2π·15 kHz,
    /// (2π·4 kHz)²)`) and the lighter junctions buy longer coherence.
    pub fn tunable_coupler() -> Self {
        DeviceProfile {
            name: "tunable-coupler".into(),
            family: TopologyFamily::Grid { rows: 3, cols: 4 },
            lambda_mean: khz(15.0),
            lambda_std: khz(4.0),
            t1_us: 120.0,
            t2_us: 150.0,
            durations: GateDurations::standard(),
        }
    }

    /// A heavy-hex device with strong always-on ZZ of the kind
    /// cancellation-drive experiments target (arXiv 2106.00675):
    /// `λ ~ N(2π·350 kHz, (2π·90 kHz)²)`, a slower cross-resonance
    /// `ZX90` and a tighter dephasing budget. At distance 3 (18 qubits)
    /// it sits above the 12-device-qubit evaluation ceiling
    /// ([`zz_core::evaluate::MAX_EVAL_QUBITS`]), so dispatch scores it
    /// through plan metrics rather than simulation.
    pub fn heavy_hex_static() -> Self {
        DeviceProfile {
            name: "heavy-hex-static".into(),
            family: TopologyFamily::HeavyHex { distance: 3 },
            lambda_mean: khz(350.0),
            lambda_std: khz(90.0),
            t1_us: 70.0,
            t2_us: 60.0,
            durations: GateDurations {
                x90: 20.0,
                zx90: 60.0,
                id: 20.0,
            },
        }
    }

    /// The three shipped profiles — one per device regime — in the
    /// order above. The standard heterogeneous fleet for examples,
    /// benches and tests.
    pub fn standard_fleet() -> Vec<DeviceProfile> {
        vec![
            DeviceProfile::paper_grid(),
            DeviceProfile::tunable_coupler(),
            DeviceProfile::heavy_hex_static(),
        ]
    }

    /// Builds this profile's topology.
    pub fn topology(&self) -> Topology {
        self.family.build()
    }

    /// This profile's decoherence channel (`T1`/`T2` in the simulator's
    /// nanosecond units). Never panics: `Fleet::add_device` rejects a
    /// profile whose channel fails [`Decoherence::check`].
    pub fn decoherence(&self) -> Decoherence {
        Decoherence {
            t1: self.t1_us * 1000.0,
            t2: self.t2_us * 1000.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_standard_fleet_is_heterogeneous() {
        let fleet = DeviceProfile::standard_fleet();
        assert_eq!(fleet.len(), 3);
        let mut names: Vec<&str> = fleet.iter().map(|p| p.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 3, "unique names");
        // Distinct ZZ regimes: tunable-coupler is an order of magnitude
        // below the paper grid, heavy-hex well above it.
        let lambda = |name: &str| {
            fleet
                .iter()
                .find(|p| p.name == name)
                .expect("shipped")
                .lambda_mean
        };
        assert!(lambda("tunable-coupler") * 10.0 < lambda("paper-grid"));
        assert!(lambda("heavy-hex-static") > lambda("paper-grid"));
    }

    #[test]
    fn profiles_build_their_topologies() {
        assert_eq!(DeviceProfile::paper_grid().topology().qubit_count(), 12);
        assert_eq!(
            DeviceProfile::tunable_coupler().topology().qubit_count(),
            12
        );
        let hex = DeviceProfile::heavy_hex_static().topology();
        assert!(
            hex.qubit_count() > zz_core::evaluate::MAX_EVAL_QUBITS,
            "heavy-hex must exercise the plan-metrics scoring path, got {}",
            hex.qubit_count()
        );
    }

    #[test]
    fn decoherence_times_are_physical() {
        for profile in DeviceProfile::standard_fleet() {
            assert_eq!(profile.decoherence().check(), Ok(()), "{}", profile.name);
        }
    }
}
