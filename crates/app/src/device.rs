//! The Table I device catalog.
//!
//! Table I of the paper lists the devices of a MAR ecosystem — smart
//! glasses, smartphone, tablet, laptop, desktop, cloud — with their
//! computing power, storage, battery life, network access and portability.
//! Here each row carries a numeric compute capacity so the `P_*` models of
//! [`crate::compute`] can be evaluated against it.

use marnet_radio::profiles::RadioTechnology;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Qualitative levels used in Table I.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Level {
    /// None at all.
    None,
    /// Very low.
    VeryLow,
    /// Low.
    Low,
    /// Medium.
    Medium,
    /// High.
    High,
    /// Effectively unlimited.
    Unlimited,
}

impl fmt::Display for Level {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Level::None => "none",
            Level::VeryLow => "very low",
            Level::Low => "low",
            Level::Medium => "medium",
            Level::High => "high",
            Level::Unlimited => "unlimited",
        };
        f.write_str(s)
    }
}

/// The device classes of Table I.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DeviceClass {
    /// Smart glasses (Google Glass / MadGaze class).
    SmartGlasses,
    /// Smartphone.
    Smartphone,
    /// Tablet PC.
    Tablet,
    /// Laptop PC.
    Laptop,
    /// Desktop PC.
    Desktop,
    /// Cloud computing (a VM with "almost infinite" resources).
    Cloud,
}

impl DeviceClass {
    /// All classes in Table I order.
    pub const ALL: [DeviceClass; 6] = [
        DeviceClass::SmartGlasses,
        DeviceClass::Smartphone,
        DeviceClass::Tablet,
        DeviceClass::Laptop,
        DeviceClass::Desktop,
        DeviceClass::Cloud,
    ];

    /// The catalog entry for this class.
    pub fn spec(self) -> DeviceSpec {
        spec(self)
    }
}

impl fmt::Display for DeviceClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DeviceClass::SmartGlasses => "smart glasses",
            DeviceClass::Smartphone => "smartphone",
            DeviceClass::Tablet => "tablet PC",
            DeviceClass::Laptop => "laptop PC",
            DeviceClass::Desktop => "desktop PC",
            DeviceClass::Cloud => "cloud computing",
        };
        f.write_str(s)
    }
}

/// One row of Table I, augmented with a numeric compute capacity.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeviceSpec {
    /// The device class.
    pub class: DeviceClass,
    /// Qualitative computing power (the Table I column).
    pub computing_power: Level,
    /// Numeric compute capacity in GFLOPS (our calibration of the column,
    /// circa-2017 hardware).
    pub compute_gflops: f64,
    /// Storage range in GB (`None` upper bound = unlimited).
    pub storage_gb: (f64, Option<f64>),
    /// Battery life in hours (`None` = mains powered).
    pub battery_hours: Option<(f64, f64)>,
    /// Network interfaces available.
    pub network: Vec<RadioTechnology>,
    /// Whether the device also has a wired interface.
    pub wired: bool,
    /// Portability.
    pub portability: Level,
}

fn spec(class: DeviceClass) -> DeviceSpec {
    match class {
        DeviceClass::SmartGlasses => DeviceSpec {
            class,
            computing_power: Level::VeryLow,
            compute_gflops: 2.0,
            storage_gb: (4.0, Some(16.0)),
            battery_hours: Some((2.0, 3.0)),
            network: vec![RadioTechnology::WifiDirect], // Bluetooth-class tether
            wired: false,
            portability: Level::High,
        },
        DeviceClass::Smartphone => DeviceSpec {
            class,
            computing_power: Level::Low,
            compute_gflops: 15.0,
            storage_gb: (16.0, Some(128.0)),
            battery_hours: Some((6.0, 8.0)),
            network: vec![
                RadioTechnology::HspaPlus,
                RadioTechnology::Lte,
                RadioTechnology::Wifi80211n,
                RadioTechnology::Wifi80211ac,
                RadioTechnology::WifiDirect,
            ],
            wired: false,
            portability: Level::High,
        },
        DeviceClass::Tablet => DeviceSpec {
            class,
            computing_power: Level::Medium,
            compute_gflops: 30.0,
            storage_gb: (32.0, Some(256.0)),
            battery_hours: Some((6.0, 8.0)),
            network: vec![
                RadioTechnology::Lte,
                RadioTechnology::Wifi80211n,
                RadioTechnology::Wifi80211ac,
            ],
            wired: false,
            portability: Level::Medium,
        },
        DeviceClass::Laptop => DeviceSpec {
            class,
            computing_power: Level::Medium, // "medium - high"
            compute_gflops: 100.0,
            storage_gb: (128.0, Some(2000.0)),
            battery_hours: Some((2.0, 8.0)),
            network: vec![
                RadioTechnology::Lte,
                RadioTechnology::Wifi80211n,
                RadioTechnology::Wifi80211ac,
            ],
            wired: true,
            portability: Level::Medium,
        },
        DeviceClass::Desktop => DeviceSpec {
            class,
            computing_power: Level::High,
            compute_gflops: 500.0,
            storage_gb: (512.0, Some(2000.0)),
            battery_hours: None,
            network: vec![RadioTechnology::Wifi80211ac],
            wired: true,
            portability: Level::None,
        },
        DeviceClass::Cloud => DeviceSpec {
            class,
            computing_power: Level::Unlimited,
            compute_gflops: 20_000.0,
            storage_gb: (100_000.0, None),
            battery_hours: None,
            network: vec![],
            wired: true,
            portability: Level::None,
        },
    }
}

/// The full catalog in Table I order.
pub fn catalog() -> Vec<DeviceSpec> {
    DeviceClass::ALL.iter().map(|&c| spec(c)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_has_six_rows_in_order() {
        let c = catalog();
        assert_eq!(c.len(), 6);
        assert_eq!(c[0].class, DeviceClass::SmartGlasses);
        assert_eq!(c[5].class, DeviceClass::Cloud);
    }

    #[test]
    fn compute_power_rises_with_class() {
        let c = catalog();
        for w in c.windows(2) {
            assert!(w[0].compute_gflops < w[1].compute_gflops, "{} vs {}", w[0].class, w[1].class);
        }
    }

    #[test]
    fn portability_and_power_are_inversely_related() {
        // Table I's core message: the most portable devices are the least
        // powerful. Every device more portable than another has less
        // compute.
        let c = catalog();
        for a in &c {
            for b in &c {
                if a.portability > b.portability {
                    assert!(
                        a.compute_gflops < b.compute_gflops,
                        "{} more portable yet stronger than {}",
                        a.class,
                        b.class
                    );
                }
            }
        }
    }

    #[test]
    fn mobility_flags() {
        // Table I's point: only the portable, wireless devices can host
        // ubiquitous MAR — and they are the least powerful.
        for class in [DeviceClass::SmartGlasses, DeviceClass::Smartphone] {
            let s = class.spec();
            assert!(s.portability >= Level::Medium && !s.network.is_empty(), "{class}");
        }
        for class in [DeviceClass::Desktop, DeviceClass::Cloud] {
            assert!(class.spec().portability < Level::Medium, "{class}");
        }
    }

    #[test]
    fn battery_only_on_portables() {
        for s in catalog() {
            assert_eq!(s.battery_hours.is_some(), s.portability >= Level::Medium, "{}", s.class);
        }
    }

    #[test]
    fn smartphone_has_cellular_glasses_do_not() {
        let phone = DeviceClass::Smartphone.spec();
        assert!(phone.network.contains(&RadioTechnology::Lte));
        let glasses = DeviceClass::SmartGlasses.spec();
        assert!(!glasses.network.contains(&RadioTechnology::Lte));
    }

    #[test]
    fn display_names() {
        assert_eq!(DeviceClass::SmartGlasses.to_string(), "smart glasses");
        assert_eq!(Level::VeryLow.to_string(), "very low");
    }
}
