//! Call-site interning: stable small ids for speculation-block labels.
//!
//! The paper's §4 model is per *call site* — one program point that
//! speculates repeatedly with a characteristic guard-duration spread
//! (`Rμ`) and overhead (`Ro`). To estimate those online, every event a
//! site emits must carry something cheap and constant; interning the
//! human label once (`site_id("rootfinder/bisect")`) and stamping the
//! dense `u64` id on the hot path keeps the event POD and the telemetry
//! plane's per-site accounting a plain array index.
//!
//! The table is process-global: call sites are code locations, not
//! per-registry state, and a process embedding several registries (a
//! loopback cluster) still means one program with one set of sites.
//! Registration takes a mutex, but only ever on the *first* encounter
//! of a label — the returned [`SiteId`] is what hot paths hold.

use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};

/// A dense interned call-site id (0, 1, 2, … in first-registration
/// order). The raw value is what [`crate::EventKind::GuardVerdict`] and
/// friends carry in their `site` field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SiteId(pub u64);

#[derive(Default)]
struct SiteTable {
    by_label: HashMap<String, u64>,
    labels: Vec<String>,
    /// Labels learned from replayed `site_label` events — ids another
    /// process handed out. Locally registered labels always win.
    learned: HashMap<u64, String>,
}

fn table() -> &'static Mutex<SiteTable> {
    static TABLE: OnceLock<Mutex<SiteTable>> = OnceLock::new();
    TABLE.get_or_init(|| Mutex::new(SiteTable::default()))
}

/// Intern `label`, returning its stable id. Idempotent: the same label
/// always yields the same id for the life of the process.
pub fn site_id(label: &str) -> SiteId {
    let mut t = table().lock().unwrap();
    if let Some(&id) = t.by_label.get(label) {
        return SiteId(id);
    }
    let id = t.labels.len() as u64;
    t.labels.push(label.to_string());
    t.by_label.insert(label.to_string(), id);
    SiteId(id)
}

/// The label `id` was registered with (locally, or learned from a
/// replayed capture's `site_label` events), or `None` for an id nobody
/// ever described — render those as `site#N`.
pub fn site_label(id: u64) -> Option<String> {
    let t = table().lock().unwrap();
    t.labels
        .get(id as usize)
        .or_else(|| t.learned.get(&id))
        .cloned()
}

/// Record a label replayed from another process's capture. Local
/// registrations take precedence: a replayer that also runs labelled
/// blocks of its own keeps its own names for ids it handed out.
pub fn learn_site_label(id: u64, label: &str) {
    let mut t = table().lock().unwrap();
    if t.labels.get(id as usize).is_none() {
        t.learned.insert(id, label.to_string());
    }
}

/// `site_label` with the `site#N` fallback applied — always renderable.
pub fn site_label_or_anon(id: u64) -> String {
    site_label(id).unwrap_or_else(|| format!("site#{id}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent_and_dense() {
        let a = site_id("test/site-a");
        let b = site_id("test/site-b");
        assert_ne!(a, b);
        assert_eq!(site_id("test/site-a"), a);
        assert_eq!(site_label(a.0).as_deref(), Some("test/site-a"));
        assert_eq!(site_label_or_anon(b.0), "test/site-b");
    }

    #[test]
    fn unknown_ids_render_anonymously() {
        assert_eq!(site_label(u64::MAX), None);
        assert_eq!(site_label_or_anon(u64::MAX), format!("site#{}", u64::MAX));
    }
}
