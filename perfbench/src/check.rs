//! Output checks: alert quality against the injected labels, and drained
//! alerts against a single-threaded reference on a sample of sessions.

use std::collections::HashSet;
use ucad::{Alert, OnlineUcad, Ucad};
use ucad_dbsim::LogRecord;

use crate::workload::Round;

/// Session-level confusion counts of drained alerts against the labels.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Quality {
    /// Injected anomalies that raised an alert.
    pub tp: u64,
    /// Normal sessions that raised an alert.
    pub fp: u64,
    /// Injected anomalies that raised none.
    pub fn_: u64,
}

impl Quality {
    /// Scores one round given the alerts it drained.
    pub fn add(&mut self, round: &Round, alerts: &[Alert]) {
        let alerted: HashSet<u64> = alerts.iter().map(|a| a.session_id).collect();
        for s in &round.sessions {
            match (s.abnormal, alerted.contains(&s.id)) {
                (true, true) => self.tp += 1,
                (false, true) => self.fp += 1,
                (true, false) => self.fn_ += 1,
                (false, false) => {}
            }
        }
    }

    /// Session-level F1; 0 when nothing was injected or flagged.
    pub fn f1(&self) -> f64 {
        let denom = 2 * self.tp + self.fp + self.fn_;
        if denom == 0 {
            0.0
        } else {
            2.0 * self.tp as f64 / denom as f64
        }
    }
}

/// One session in `SAMPLE_EVERY` is replayed through the reference.
const SAMPLE_EVERY: u64 = 8;

/// Sessions drawn for the reference comparison, with what the system under
/// test drained for them. `Streaming` verdicts depend only on a session's
/// own records, so a sample of whole sessions checks the full stream's
/// alerts for those sessions exactly.
pub struct Sample {
    budget: usize,
    rounds: Vec<(Vec<LogRecord>, Vec<u64>)>,
    served: Vec<Alert>,
}

impl Sample {
    /// A sample of at most about `budget` records.
    pub fn new(budget: usize) -> Self {
        Sample {
            budget,
            rounds: Vec::new(),
            served: Vec::new(),
        }
    }

    /// Picks this round's sampled sessions (a fixed hash of the session id,
    /// while the record budget lasts) and keeps their records and the
    /// alerts the system under test drained for them.
    pub fn add(&mut self, round: &Round, drained: &[Alert]) {
        let mut ids = Vec::new();
        for s in &round.sessions {
            if self.budget == 0 {
                break;
            }
            if ucad::splitmix64(s.id ^ 0x5A3D_1E00).is_multiple_of(SAMPLE_EVERY) {
                let len = round
                    .records
                    .iter()
                    .filter(|(_, r)| r.session_id == s.id)
                    .count();
                self.budget = self.budget.saturating_sub(len);
                ids.push(s.id);
            }
        }
        if ids.is_empty() {
            return;
        }
        let picked: HashSet<u64> = ids.iter().copied().collect();
        let records = round
            .records
            .iter()
            .filter(|(_, r)| picked.contains(&r.session_id))
            .map(|(_, r)| r.clone())
            .collect();
        self.served.extend(
            drained
                .iter()
                .filter(|a| picked.contains(&a.session_id))
                .cloned(),
        );
        self.rounds.push((records, ids));
    }

    /// Records in the sample.
    pub fn records(&self) -> usize {
        self.rounds.iter().map(|(r, _)| r.len()).sum()
    }

    /// Replays the sample through a single-threaded [`OnlineUcad`] and
    /// compares its alerts with what was drained. `Err` names the first
    /// difference.
    pub fn verify(&self, system: &Ucad) -> Result<usize, String> {
        let mut online = OnlineUcad::new(system.clone());
        for (records, ids) in &self.rounds {
            for r in records {
                online.observe(r);
            }
            for id in ids {
                online.close_session(*id);
            }
        }
        first_difference(online.alerts(), &self.served).map_or(Ok(self.served.len()), |msg| {
            Err(format!("reference mismatch: {msg}"))
        })
    }
}

/// Describes the first difference between two alert streams, if any.
pub fn first_difference(expected: &[Alert], got: &[Alert]) -> Option<String> {
    if let Some((i, (e, g))) = expected
        .iter()
        .zip(got)
        .enumerate()
        .find(|(_, (e, g))| e != g)
    {
        return Some(format!("alert {i}: expected {e:?}, got {g:?}"));
    }
    (expected.len() != got.len())
        .then(|| format!("{} alerts expected, {} drained", expected.len(), got.len()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::SessionInfo;
    use ucad::AlertReason;

    fn alert(session_id: u64) -> Alert {
        Alert {
            session_id,
            user: "u".into(),
            reason: AlertReason::IntentMismatch,
            sql: None,
            position: Some(3),
            degraded: false,
        }
    }

    #[test]
    fn f1_counts_sessions_not_alerts() {
        let info = |id, abnormal| SessionInfo {
            id,
            tenant: 1,
            abnormal,
            last_record: 0,
        };
        let round = Round {
            records: Vec::new(),
            sessions: vec![info(1, true), info(2, true), info(3, false), info(4, false)],
        };
        let mut q = Quality::default();
        // Session 1 alerts twice: still one true positive.
        q.add(&round, &[alert(1), alert(1), alert(3)]);
        assert_eq!(
            q,
            Quality {
                tp: 1,
                fp: 1,
                fn_: 1
            }
        );
        assert_eq!(q.f1(), 0.5);
        assert_eq!(Quality::default().f1(), 0.0);
    }

    #[test]
    fn first_difference_reports_content_and_length() {
        assert_eq!(first_difference(&[alert(1)], &[alert(1)]), None);
        assert!(first_difference(&[alert(1)], &[alert(2)])
            .unwrap()
            .contains("alert 0"));
        assert!(first_difference(&[alert(1)], &[])
            .unwrap()
            .contains("1 alerts expected"));
    }
}
