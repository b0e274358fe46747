//! Enumeration and naming of DDT combinations.

use ddtr_apps::DOMINANT_SLOTS_PER_APP;
use ddtr_ddt::DdtKind;

/// A DDT implementation choice for the application's two dominant slots.
pub type Combo = [DdtKind; DOMINANT_SLOTS_PER_APP];

/// Enumerates all `10^2 = 100` DDT combinations in canonical order — the
/// exhaustive application-level design space of the paper ("if there are
/// two dominant data structures, then we have to simulate 100 times").
///
/// # Example
///
/// ```
/// use ddtr_engine::all_combos;
///
/// let combos = all_combos();
/// assert_eq!(combos.len(), 100);
/// assert_eq!(combos[0][0], combos[0][1]); // AR + AR first
/// ```
#[must_use]
pub fn all_combos() -> Vec<Combo> {
    let mut out = Vec::with_capacity(DdtKind::ALL.len().pow(2));
    for a in DdtKind::ALL {
        for b in DdtKind::ALL {
            out.push([a, b]);
        }
    }
    out
}

/// Enumerates every combination drawn from an explicit candidate set — the
/// exhaustive design space when the library is extended beyond the paper's
/// ten implementations (e.g. [`DdtKind::EXTENDED`] gives `12^2 = 144`).
///
/// # Example
///
/// ```
/// use ddtr_engine::combos_from;
/// use ddtr_ddt::DdtKind;
///
/// assert_eq!(combos_from(&DdtKind::EXTENDED).len(), 144);
/// assert_eq!(combos_from(&DdtKind::ALL).len(), 100);
/// ```
#[must_use]
pub fn combos_from(candidates: &[DdtKind]) -> Vec<Combo> {
    let mut out = Vec::with_capacity(candidates.len().pow(2));
    for &a in candidates {
        for &b in candidates {
            out.push([a, b]);
        }
    }
    out
}

/// Human-readable label of a combination, e.g. `"AR+DLL"`.
#[must_use]
pub fn combo_label(combo: Combo) -> String {
    [combo[0].name(), "+", combo[1].name()].concat()
}

/// Parses a label produced by [`combo_label`].
///
/// # Errors
///
/// Returns a message when the label is not `<kind>+<kind>`.
pub fn parse_combo(label: &str) -> Result<Combo, String> {
    let (a, b) = label
        .split_once('+')
        .ok_or_else(|| format!("combo label `{label}` must be `<ddt>+<ddt>`"))?;
    let a: DdtKind = a.parse().map_err(|e| format!("{e}"))?;
    let b: DdtKind = b.parse().map_err(|e| format!("{e}"))?;
    Ok([a, b])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hundred_distinct_combos() {
        let combos = all_combos();
        assert_eq!(combos.len(), 100);
        let mut labels: Vec<String> = combos.iter().map(|&c| combo_label(c)).collect();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), 100);
    }

    #[test]
    fn label_round_trips() {
        for combo in all_combos() {
            let parsed = parse_combo(&combo_label(combo)).expect("round trip");
            assert_eq!(parsed, combo);
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse_combo("AR").is_err());
        assert!(parse_combo("AR+BTREE").is_err());
        assert!(parse_combo("FOO+DLL").is_err());
    }

    #[test]
    fn paper_highlight_combo_parses() {
        // Fig. 4b highlights "the combination of array and double linked
        // list DDTs".
        let combo = parse_combo("AR+DLL").expect("paper combo");
        assert_eq!(combo, [DdtKind::Array, DdtKind::Dll]);
    }
}
