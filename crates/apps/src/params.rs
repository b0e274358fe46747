//! Application-specific exploration parameters.

use crate::kind::AppKind;
use serde::{Deserialize, Serialize};
use std::fmt;

fn default_nat_ports() -> usize {
    64
}

/// Application parameters varied by the network-level exploration.
///
/// The paper calls these "other network parameters … application specific:
/// for example, the Radix tree size is an important parameter for the IPv4
/// routing application … the Level of Fairness used in the Deficit Round
/// Robin scheduling application and the number of rules activated in a
/// firewall application".
///
/// # Example
///
/// ```
/// use ddtr_apps::{AppKind, AppParams};
///
/// // Route is explored for two radix-table sizes, like the paper.
/// let variants = AppParams::variants_for(AppKind::Route);
/// let sizes: Vec<usize> = variants.iter().map(|p| p.route_table_size).collect();
/// assert_eq!(sizes, vec![128, 256]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct AppParams {
    /// Number of prefixes in the routing table (paper: 128 and 256).
    pub route_table_size: usize,
    /// Number of active firewall rules.
    pub firewall_rules: usize,
    /// DRR quantum in bytes — the "level of fairness".
    pub drr_quantum: u32,
    /// Number of entries in the URL pattern table.
    pub url_patterns: usize,
    /// Size of the NAT external port pool (extension case study).
    #[serde(default = "default_nat_ports")]
    pub nat_ports: usize,
    /// Maximum tracked sessions/connections before the oldest is evicted.
    pub table_cap: usize,
    /// Seed for the deterministic synthesis of tables and rules.
    pub seed: u64,
}

impl AppParams {
    /// The parameter variants explored per application at the network
    /// configuration level, sized to reproduce the paper's simulation
    /// counts (Route x2, IPchains x3, URL/DRR x1).
    #[must_use]
    pub fn variants_for(kind: AppKind) -> Vec<AppParams> {
        let base = AppParams::default();
        match kind {
            AppKind::Route => vec![
                AppParams {
                    route_table_size: 128,
                    ..base.clone()
                },
                AppParams {
                    route_table_size: 256,
                    ..base
                },
            ],
            AppKind::Ipchains => [16, 32, 64]
                .into_iter()
                .map(|rules| AppParams {
                    firewall_rules: rules,
                    ..base.clone()
                })
                .collect(),
            AppKind::Url | AppKind::Drr => vec![base],
            AppKind::Nat => [64, 128]
                .into_iter()
                .map(|ports| AppParams {
                    nat_ports: ports,
                    ..base.clone()
                })
                .collect(),
        }
    }

    /// A short label describing the app-specific knob of this variant.
    #[must_use]
    pub fn label(&self, kind: AppKind) -> String {
        let (knob, value) = match kind {
            AppKind::Route => ("radix", self.route_table_size.to_string()),
            AppKind::Ipchains => ("rules", self.firewall_rules.to_string()),
            AppKind::Url => ("pat", self.url_patterns.to_string()),
            AppKind::Drr => ("q", self.drr_quantum.to_string()),
            AppKind::Nat => ("ports", self.nat_ports.to_string()),
        };
        [knob, &value].concat()
    }

    /// Validates parameter ranges.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if self.route_table_size < 2 {
            return Err("routing table needs at least 2 prefixes".into());
        }
        if self.firewall_rules == 0 {
            return Err("firewall needs at least one rule".into());
        }
        if self.drr_quantum == 0 {
            return Err("DRR quantum must be non-zero".into());
        }
        if self.url_patterns == 0 {
            return Err("URL switch needs at least one pattern".into());
        }
        if self.nat_ports < 2 {
            return Err("NAT pool needs at least two ports".into());
        }
        if self.table_cap < 4 {
            return Err("session/connection cap must be at least 4".into());
        }
        Ok(())
    }
}

impl Default for AppParams {
    fn default() -> Self {
        AppParams {
            route_table_size: 128,
            firewall_rules: 32,
            drr_quantum: 1500,
            url_patterns: 16,
            nat_ports: default_nat_ports(),
            table_cap: 48,
            seed: 0x6170_7073,
        }
    }
}

impl fmt::Display for AppParams {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "radix={} rules={} quantum={} patterns={} ports={} cap={}",
            self.route_table_size,
            self.firewall_rules,
            self.drr_quantum,
            self.url_patterns,
            self.nat_ports,
            self.table_cap
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        AppParams::default().validate().expect("valid");
    }

    #[test]
    fn variant_counts_match_paper() {
        assert_eq!(AppParams::variants_for(AppKind::Route).len(), 2);
        assert_eq!(AppParams::variants_for(AppKind::Ipchains).len(), 3);
        assert_eq!(AppParams::variants_for(AppKind::Url).len(), 1);
        assert_eq!(AppParams::variants_for(AppKind::Drr).len(), 1);
        assert_eq!(AppParams::variants_for(AppKind::Nat).len(), 2);
    }

    #[test]
    fn all_variants_are_valid() {
        for kind in AppKind::EXTENDED_ALL {
            for v in AppParams::variants_for(kind) {
                v.validate().expect("variant valid");
            }
        }
    }

    #[test]
    fn params_without_nat_field_deserialise_to_default_pool() {
        let mut v = serde_json::to_value(AppParams::default()).expect("ser");
        v.as_object_mut().expect("object").remove("nat_ports");
        let p: AppParams = serde_json::from_value(v).expect("de");
        assert_eq!(p.nat_ports, 64);
    }

    #[test]
    fn labels_are_distinct_within_app() {
        for kind in AppKind::EXTENDED_ALL {
            let labels: Vec<String> = AppParams::variants_for(kind)
                .iter()
                .map(|p| p.label(kind))
                .collect();
            let mut dedup = labels.clone();
            dedup.sort();
            dedup.dedup();
            assert_eq!(dedup.len(), labels.len(), "{kind}");
        }
    }

    #[test]
    fn validation_rejects_degenerate_values() {
        let cases = [
            AppParams {
                route_table_size: 1,
                ..AppParams::default()
            },
            AppParams {
                firewall_rules: 0,
                ..AppParams::default()
            },
            AppParams {
                drr_quantum: 0,
                ..AppParams::default()
            },
            AppParams {
                table_cap: 1,
                ..AppParams::default()
            },
        ];
        for p in cases {
            assert!(p.validate().is_err(), "{p}");
        }
    }
}
