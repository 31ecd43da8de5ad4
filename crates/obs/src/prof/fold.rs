//! Collapsed ("folded") stack rendering: one line per distinct
//! `site;world;phase` triple with its cumulative sample count — the
//! input format of standard flamegraph tooling (`flamegraph.pl`,
//! inferno, speedscope).
//!
//! Two sources render to the same format: a live sampler's tables
//! ([`render_folded_tables`]) and a replayed JSONL capture's `cpu`
//! flush events ([`render_folded_events`]).

use super::marker::{Phase, NO_SITE, NO_WORLD};
use super::sampler::SampleTables;
use crate::{site_label_or_anon, Event, EventKind};
use std::collections::BTreeMap;

fn site_frame(site: u64) -> String {
    if site == NO_SITE {
        "unattributed".to_string()
    } else {
        // Frame separators inside a label would split it into bogus
        // frames downstream.
        site_label_or_anon(site).replace(';', ":")
    }
}

fn world_frame(world: u64) -> String {
    if world == NO_WORLD {
        "-".to_string()
    } else {
        format!("world:{world}")
    }
}

fn render(folded: BTreeMap<(String, String, &'static str), u64>) -> String {
    let mut out = String::with_capacity(folded.len() * 48);
    for ((site, world, phase), count) in folded {
        out.push_str(&format!("{site};{world};{phase} {count}\n"));
    }
    out
}

/// Fold a live sampler's cumulative tables (alternatives merged).
pub fn render_folded_tables(tables: &SampleTables) -> String {
    let mut folded: BTreeMap<(String, String, &'static str), u64> = BTreeMap::new();
    for (key, count) in &tables.by_key {
        *folded
            .entry((
                site_frame(key.site),
                world_frame(key.world),
                key.phase.name(),
            ))
            .or_insert(0) += count;
    }
    render(folded)
}

/// Fold a capture's `cpu` flush events.
pub fn render_folded_events<'a>(events: impl IntoIterator<Item = &'a Event>) -> String {
    let mut folded: BTreeMap<(String, String, &'static str), u64> = BTreeMap::new();
    for ev in events {
        if let EventKind::CpuSamples {
            samples,
            site,
            phase,
            ..
        } = &ev.kind
        {
            *folded
                .entry((
                    site_frame(site.unwrap_or(NO_SITE)),
                    world_frame(ev.world),
                    Phase::from_u8(*phase as u8).name(),
                ))
                .or_insert(0) += samples;
        }
    }
    render(folded)
}

/// Check one folded line: `frame(;frame)* count`. Returns the count.
pub fn parse_folded_line(line: &str) -> Result<u64, String> {
    let (stack, count) = line
        .rsplit_once(' ')
        .ok_or_else(|| format!("no count separator in {line:?}"))?;
    if stack.is_empty() || stack.split(';').any(|f| f.is_empty()) {
        return Err(format!("empty frame in {line:?}"));
    }
    count
        .parse::<u64>()
        .map_err(|_| format!("bad count in {line:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prof::marker::NO_ALT;
    use crate::prof::sampler::SampleKey;

    #[test]
    fn tables_fold_and_parse() {
        let mut t = SampleTables::default();
        t.by_key.insert(
            SampleKey {
                world: 3,
                site: NO_SITE,
                alt: 0,
                phase: Phase::Guard,
            },
            10,
        );
        t.by_key.insert(
            SampleKey {
                world: 3,
                site: NO_SITE,
                alt: 1,
                phase: Phase::Guard,
            },
            5,
        );
        t.by_key.insert(
            SampleKey {
                world: NO_WORLD,
                site: NO_SITE,
                alt: NO_ALT,
                phase: Phase::Reap,
            },
            2,
        );
        let folded = render_folded_tables(&t);
        assert!(
            folded.contains("unattributed;world:3;guard 15"),
            "alts must merge: {folded}"
        );
        assert!(folded.contains("unattributed;-;reap 2"), "{folded}");
        for line in folded.lines() {
            parse_folded_line(line).unwrap_or_else(|e| panic!("{e}"));
        }
    }

    #[test]
    fn events_fold_to_same_shape() {
        let events = vec![
            Event::new(
                EventKind::CpuSamples {
                    samples: 4,
                    period_ns: 1_000_000,
                    site: None,
                    alt: Some(0),
                    phase: Phase::Guard as u64,
                },
                9,
                None,
                10,
            ),
            Event::new(
                EventKind::CpuSamples {
                    samples: 6,
                    period_ns: 1_000_000,
                    site: None,
                    alt: Some(1),
                    phase: Phase::Guard as u64,
                },
                9,
                None,
                20,
            ),
            Event::new(EventKind::Rendezvous, 9, None, 30),
        ];
        let folded = render_folded_events(&events);
        assert_eq!(folded, "unattributed;world:9;guard 10\n");
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        for bad in ["", "nospace", "a;b notanumber", "; 5", "a;;b 5"] {
            assert!(parse_folded_line(bad).is_err(), "accepted {bad:?}");
        }
        assert_eq!(parse_folded_line("a;world:1;guard 7").unwrap(), 7);
    }
}
