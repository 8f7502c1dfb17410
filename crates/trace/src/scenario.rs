//! Scenario specifications and the workflow-driven session generator.
//!
//! The paper evaluates on two proprietary production traces; this module
//! replaces them with generative models calibrated to Table 1. Sessions are
//! produced by sampling *intent workflows* — short task arcs such as "ingest
//! fingerprints, verify, update the index" — whose internal operation order
//! is deliberately interchangeable. That reproduces the property UCAD's
//! design targets: heterogeneous operation orderings with identical
//! semantics.

use crate::session::{Operation, Session};
use crate::template::{PredShape, StatementTemplate, TemplateShape};
use rand::seq::SliceRandom;
use rand::Rng;
use ucad_dbsim::{AuditedDatabase, Database, OpKind, SessionContext};

/// A table definition for the scenario's database.
#[derive(Debug, Clone)]
pub struct TableSpec {
    /// Table name.
    pub name: String,
    /// Column names.
    pub columns: Vec<String>,
}

/// A group of interchangeable slots inside a workflow.
#[derive(Debug, Clone)]
pub struct SlotGroup {
    /// Template ids this group draws from.
    pub pool: Vec<usize>,
    /// Minimum number of operations emitted.
    pub min_picks: usize,
    /// Maximum number of operations emitted (inclusive).
    pub max_picks: usize,
    /// Whether the emitted operations are order-free (eligible for the V2
    /// partial-swap mutation).
    pub interchangeable: bool,
}

/// An intent workflow: an ordered arc of slot groups.
#[derive(Debug, Clone)]
pub struct WorkflowSpec {
    /// Workflow name, for diagnostics.
    pub name: String,
    /// Relative sampling weight.
    pub weight: f32,
    /// Ordered groups; group order is the workflow's intent arc.
    pub groups: Vec<SlotGroup>,
}

/// A complete scenario: schema, statement shapes, workflows and population.
#[derive(Debug, Clone)]
pub struct ScenarioSpec {
    /// Scenario name ("commenting" / "location-service").
    pub name: &'static str,
    /// Database schema.
    pub tables: Vec<TableSpec>,
    /// Statement template pool; index = template id.
    pub templates: Vec<StatementTemplate>,
    /// Workflow pool.
    pub workflows: Vec<WorkflowSpec>,
    /// `(user, known_ip)` population.
    pub users: Vec<(String, String)>,
    /// Target mean session length (Table 1 "Average length").
    pub avg_session_len: usize,
    /// Fraction of sessions mixing two task workflows (the rest serve a
    /// single task). Human-facing apps mix more than machine traffic.
    pub multi_task_rate: f64,
    /// Number of purified training sessions (Table 1 "#Training session").
    pub default_train_sessions: usize,
}

impl ScenarioSpec {
    /// Template ids matching a predicate.
    pub fn template_ids(&self, pred: impl Fn(&StatementTemplate) -> bool) -> Vec<usize> {
        self.templates
            .iter()
            .filter(|t| pred(t))
            .map(|t| t.id)
            .collect()
    }

    /// Template ids of a kind on a table.
    pub fn ids_for(&self, table: &str, kind: OpKind) -> Vec<usize> {
        self.template_ids(|t| t.table == table && t.kind() == kind)
    }

    /// Templates whose weight is below `threshold` — the "rarely performed"
    /// operations used for misoperation (A3) synthesis.
    pub fn rare_template_ids(&self, threshold: f32) -> Vec<usize> {
        self.template_ids(|t| t.weight < threshold)
    }

    /// All select template ids (used for A1 privilege-abuse synthesis).
    pub fn select_template_ids(&self) -> Vec<usize> {
        self.template_ids(|t| t.kind() == OpKind::Select)
    }

    /// All delete template ids (used for A2 credential-stealing synthesis).
    pub fn delete_template_ids(&self) -> Vec<usize> {
        self.template_ids(|t| t.kind() == OpKind::Delete)
    }

    /// Number of statement keys per kind `(select, insert, update, delete)`,
    /// the Table 1 `#Keys` breakdown.
    pub fn key_counts(&self) -> (usize, usize, usize, usize) {
        let mut c = (0, 0, 0, 0);
        for t in &self.templates {
            match t.kind() {
                OpKind::Select => c.0 += 1,
                OpKind::Insert => c.1 += 1,
                OpKind::Update => c.2 += 1,
                OpKind::Delete => c.3 += 1,
            }
        }
        c
    }

    /// Scenario-I of the paper: an online commenting (danmu) application —
    /// 7 tables, 20 statement keys (7 select, 4 insert, 4 update, 5 delete),
    /// short sessions (avg 24).
    pub fn commenting() -> Self {
        let tables = vec![
            TableSpec {
                name: "t_content".into(),
                columns: svec(&["danmuKey", "count", "userId", "ts"]),
            },
            TableSpec {
                name: "danmu_display".into(),
                columns: svec(&["videoId", "danmuId", "ts"]),
            },
            TableSpec {
                name: "t_user".into(),
                columns: svec(&["userId", "name", "level"]),
            },
            TableSpec {
                name: "t_video".into(),
                columns: svec(&["videoId", "title", "views"]),
            },
            TableSpec {
                name: "t_like".into(),
                columns: svec(&["danmuKey", "userId"]),
            },
            TableSpec {
                name: "t_task".into(),
                columns: svec(&["userId", "done"]),
            },
            TableSpec {
                name: "t_reward".into(),
                columns: svec(&["userId", "coins"]),
            },
        ];
        let mut b = TemplateBuilder::new();
        // 7 selects
        let sel_display = b.select("danmu_display", None, &[("videoId", PredShape::Eq)], 1.0);
        let sel_content = b.select("t_content", None, &[("danmuKey", PredShape::Eq)], 1.0);
        let sel_video = b.select("t_video", None, &[("videoId", PredShape::Eq)], 1.0);
        let sel_user = b.select("t_user", None, &[("userId", PredShape::Eq)], 0.6);
        let sel_like = b.select(
            "t_like",
            None,
            &[("danmuKey", PredShape::Eq), ("userId", PredShape::Eq)],
            0.8,
        );
        let sel_task = b.select("t_task", None, &[("userId", PredShape::Eq)], 0.5);
        let sel_content_hist = b.select(
            "t_content",
            Some(&["danmuKey", "count"]),
            &[("userId", PredShape::Eq), ("ts", PredShape::In(2))],
            0.05,
        );
        // 4 inserts
        let ins_content = b.insert("t_content", &["danmuKey", "count", "userId", "ts"], 1, 1.0);
        let ins_display = b.insert("danmu_display", &["videoId", "danmuId", "ts"], 1, 1.0);
        let ins_like = b.insert("t_like", &["danmuKey", "userId"], 1, 0.8);
        let ins_reward = b.insert("t_reward", &["userId", "coins"], 1, 0.4);
        // 4 updates
        let upd_content = b.update("t_content", &["count"], &[("danmuKey", PredShape::Eq)], 1.0);
        let upd_video = b.update("t_video", &["views"], &[("videoId", PredShape::Eq)], 1.0);
        let upd_user = b.update("t_user", &["level"], &[("userId", PredShape::Eq)], 0.05);
        let upd_task = b.update("t_task", &["done"], &[("userId", PredShape::Eq)], 0.5);
        // 5 deletes
        let del_display = b.delete("danmu_display", &[("danmuId", PredShape::Eq)], 0.7);
        let del_content = b.delete("t_content", &[("danmuKey", PredShape::Eq)], 0.7);
        let del_like = b.delete(
            "t_like",
            &[("danmuKey", PredShape::Eq), ("userId", PredShape::Eq)],
            0.4,
        );
        let del_task = b.delete("t_task", &[("userId", PredShape::Eq)], 0.3);
        let del_reward = b.delete("t_reward", &[("userId", PredShape::Eq)], 0.05);

        let group = |pool: Vec<usize>, min: usize, max: usize, inter: bool| SlotGroup {
            pool,
            min_picks: min,
            max_picks: max,
            interchangeable: inter,
        };
        let workflows = vec![
            WorkflowSpec {
                name: "watch-video".into(),
                weight: 1.2,
                groups: vec![
                    group(vec![sel_video], 1, 1, false),
                    group(vec![sel_display, sel_content], 2, 5, true),
                    group(vec![upd_video], 1, 1, false),
                ],
            },
            WorkflowSpec {
                name: "post-danmu".into(),
                weight: 1.0,
                groups: vec![
                    group(vec![ins_content], 1, 1, false),
                    group(vec![ins_display], 1, 1, false),
                    group(vec![sel_content, sel_display], 1, 2, true),
                    group(vec![upd_video], 0, 1, false),
                ],
            },
            WorkflowSpec {
                name: "like-danmu".into(),
                weight: 0.9,
                groups: vec![
                    group(vec![sel_display], 1, 1, false),
                    group(vec![ins_like], 1, 1, false),
                    group(vec![upd_content], 1, 1, false),
                ],
            },
            WorkflowSpec {
                name: "moderate-content".into(),
                weight: 0.6,
                groups: vec![
                    group(vec![sel_content], 1, 2, true),
                    group(vec![del_content], 1, 1, false),
                    group(vec![del_display], 1, 1, false),
                ],
            },
            WorkflowSpec {
                name: "daily-task".into(),
                weight: 0.5,
                groups: vec![
                    group(vec![sel_task], 1, 1, false),
                    group(vec![upd_task], 1, 1, false),
                    group(vec![ins_reward], 1, 1, false),
                ],
            },
            WorkflowSpec {
                name: "retract-like".into(),
                weight: 0.3,
                groups: vec![
                    group(vec![sel_like], 1, 1, false),
                    group(vec![del_like], 1, 1, false),
                    group(vec![upd_content], 1, 1, false),
                ],
            },
            WorkflowSpec {
                name: "cleanup-tasks".into(),
                weight: 0.15,
                groups: vec![
                    group(vec![sel_task, sel_user], 1, 2, true),
                    group(vec![del_task], 1, 1, false),
                ],
            },
            // Rare administrative workflows: these keep every statement key
            // reachable in normal traffic (the paper's A3 misoperations are
            // *rarely performed* normal ops, not unseen ones).
            WorkflowSpec {
                name: "profile-upgrade".into(),
                weight: 0.06,
                groups: vec![
                    group(vec![sel_user], 1, 1, false),
                    group(vec![upd_user], 1, 1, false),
                ],
            },
            WorkflowSpec {
                name: "history-audit".into(),
                weight: 0.06,
                groups: vec![
                    group(vec![sel_user], 1, 1, false),
                    group(vec![sel_content_hist], 1, 2, true),
                ],
            },
            WorkflowSpec {
                name: "reward-revoke".into(),
                weight: 0.05,
                groups: vec![
                    group(vec![sel_task], 1, 1, false),
                    group(vec![del_reward], 1, 1, false),
                ],
            },
        ];
        ScenarioSpec {
            name: "commenting",
            tables,
            templates: b.templates,
            workflows,
            users: (0..12)
                .map(|u| (format!("user{u}"), format!("10.0.{u}.1")))
                .collect(),
            avg_session_len: 24,
            multi_task_rate: 0.12,
            default_train_sessions: 354,
        }
    }

    /// Scenario-II of the paper: a location service — 15 tables, 593
    /// statement keys, long sessions (avg 129), select/insert heavy.
    ///
    /// Note: the paper's Table 1 prints the per-kind breakdown
    /// `(238, 351, 146, 4)`, which sums to 739, not to the stated 593 total.
    /// We keep the total (593) and the select/insert dominance by using
    /// `(238, 205, 146, 4)`.
    pub fn location_service() -> Self {
        let mut tables = Vec::new();
        for i in 0..10 {
            tables.push(TableSpec {
                name: format!("t_cell_fp_{i}"),
                columns: svec(&["pnci", "gridId", "fps"]),
            });
        }
        for j in 0..3 {
            tables.push(TableSpec {
                name: format!("t_cell_picn_{j}"),
                columns: svec(&["pnci", "pi", "cn"]),
            });
        }
        tables.push(TableSpec {
            name: "loc_rm".into(),
            columns: svec(&["devId", "lat", "lon", "ts"]),
        });
        tables.push(TableSpec {
            name: "loc_rmf".into(),
            columns: svec(&["devId", "lat", "lon", "ts"]),
        });

        let mut b = TemplateBuilder::new();
        // --- Selects: 10x22 on fp tables + 6 on picn + 12 on loc_* = 238.
        for i in 0..10 {
            let t = format!("t_cell_fp_{i}");
            for arity in 2..=23usize {
                // Small IN-lists dominate; very large ones are rare.
                let weight = 1.0 / (1.0 + 0.4 * (arity as f32 - 2.0));
                b.select(
                    &t,
                    None,
                    &[("pnci", PredShape::Eq), ("gridId", PredShape::In(arity))],
                    weight,
                );
            }
        }
        for j in 0..3 {
            let t = format!("t_cell_picn_{j}");
            b.select(&t, None, &[("pnci", PredShape::Eq)], 1.0);
            b.select(
                &t,
                None,
                &[("pnci", PredShape::Eq), ("pi", PredShape::Eq)],
                0.4,
            );
        }
        b.select("loc_rm", None, &[("devId", PredShape::Eq)], 1.0);
        b.select(
            "loc_rm",
            None,
            &[("devId", PredShape::Eq), ("ts", PredShape::Eq)],
            0.6,
        );
        b.select("loc_rm", None, &[("ts", PredShape::Eq)], 0.3);
        b.select(
            "loc_rm",
            Some(&["lat", "lon"]),
            &[("devId", PredShape::Eq)],
            0.8,
        );
        b.select("loc_rm", None, &[("devId", PredShape::In(2))], 0.3);
        b.select("loc_rm", None, &[("devId", PredShape::In(3))], 0.2);
        b.select("loc_rm", None, &[("ts", PredShape::In(2))], 0.05);
        b.select("loc_rm", Some(&["ts"]), &[("devId", PredShape::Eq)], 0.3);
        b.select("loc_rmf", None, &[("devId", PredShape::Eq)], 0.8);
        b.select("loc_rmf", None, &[("ts", PredShape::Eq)], 0.1);
        b.select(
            "loc_rmf",
            Some(&["lat", "lon"]),
            &[("devId", PredShape::Eq)],
            0.4,
        );
        b.select("loc_rmf", None, &[("devId", PredShape::In(2))], 0.05);
        // --- Inserts: 10x18 on fp + 3x5 on picn + 5 + 5 on loc_* = 205.
        for i in 0..10 {
            let t = format!("t_cell_fp_{i}");
            for tuples in 1..=18usize {
                let weight = 1.0 / (1.0 + 0.5 * (tuples as f32 - 1.0));
                b.insert(&t, &["pnci", "gridId", "fps"], tuples, weight);
            }
        }
        for j in 0..3 {
            let t = format!("t_cell_picn_{j}");
            for tuples in 1..=5usize {
                b.insert(&t, &["pnci", "pi", "cn"], tuples, 1.0 / tuples as f32);
            }
        }
        for tuples in 1..=5usize {
            b.insert(
                "loc_rm",
                &["devId", "lat", "lon", "ts"],
                tuples,
                1.0 / tuples as f32,
            );
        }
        for tuples in 1..=5usize {
            b.insert(
                "loc_rmf",
                &["devId", "lat", "lon", "ts"],
                tuples,
                0.8 / tuples as f32,
            );
        }
        // --- Updates: 10x14 on fp + 6 on picn = 146.
        for i in 0..10 {
            let t = format!("t_cell_fp_{i}");
            b.update(
                &t,
                &["fps"],
                &[("pnci", PredShape::Eq), ("gridId", PredShape::Eq)],
                1.0,
            );
            for arity in 2..=13usize {
                let weight = 0.6 / (1.0 + 0.4 * (arity as f32 - 2.0));
                b.update(
                    &t,
                    &["fps"],
                    &[("pnci", PredShape::Eq), ("gridId", PredShape::In(arity))],
                    weight,
                );
            }
            b.update(&t, &["fps", "gridId"], &[("pnci", PredShape::Eq)], 0.08);
        }
        for j in 0..3 {
            let t = format!("t_cell_picn_{j}");
            b.update(
                &t,
                &["cn"],
                &[("pnci", PredShape::Eq), ("pi", PredShape::Eq)],
                0.6,
            );
            b.update(&t, &["pi", "cn"], &[("pnci", PredShape::Eq)], 0.1);
        }
        // --- Deletes: 4 total, all rare.
        let del_rm_dev = b.delete("loc_rm", &[("devId", PredShape::Eq)], 0.15);
        b.delete("loc_rm", &[("ts", PredShape::Eq)], 0.04);
        b.delete("loc_rmf", &[("devId", PredShape::Eq)], 0.08);
        b.delete("t_cell_fp_0", &[("pnci", PredShape::Eq)], 0.03);

        // Workflow pools, assembled from the programmatic template ranges.
        // Every workflow's key footprint is kept near (or below) the
        // scenario's detection budget p=10: a session serves one task, so
        // its plausible next-operation set must be coverable by top-p.
        let fp_sel_range = |b: &TemplateBuilder, i: usize, lo: usize, hi: usize| -> Vec<usize> {
            b.ids(|t| {
                t.table == format!("t_cell_fp_{i}")
                    && matches!(
                        &t.shape,
                        TemplateShape::Select { preds, .. }
                            if matches!(preds.last(), Some((_, PredShape::In(a))) if *a >= lo && *a <= hi)
                    )
            })
        };
        let fp_ins_range = |b: &TemplateBuilder, i: usize, lo: usize, hi: usize| -> Vec<usize> {
            b.ids(|t| {
                t.table == format!("t_cell_fp_{i}")
                    && matches!(&t.shape, TemplateShape::Insert { tuples, .. } if *tuples >= lo && *tuples <= hi)
            })
        };
        let fp_upd_eq = |b: &TemplateBuilder, i: usize| -> Vec<usize> {
            b.ids(|t| {
                t.table == format!("t_cell_fp_{i}")
                    && matches!(&t.shape, TemplateShape::Update { set_cols, preds }
                        if set_cols.len() == 1
                            && preds.iter().all(|(_, p)| matches!(p, PredShape::Eq)))
            })
        };
        let fp_upd_in = |b: &TemplateBuilder, i: usize, lo: usize, hi: usize| -> Vec<usize> {
            b.ids(|t| {
                t.table == format!("t_cell_fp_{i}")
                    && matches!(&t.shape, TemplateShape::Update { preds, .. }
                        if preds.iter().any(|(_, p)| matches!(p, PredShape::In(a) if *a >= lo && *a <= hi)))
            })
        };
        let fp_upd_multi = |b: &TemplateBuilder, i: usize| -> Vec<usize> {
            b.ids(|t| {
                t.table == format!("t_cell_fp_{i}")
                    && matches!(&t.shape, TemplateShape::Update { set_cols, .. } if set_cols.len() > 1)
            })
        };
        let picn_sel = |b: &TemplateBuilder, j: usize| -> Vec<usize> {
            b.ids(|t| {
                t.table == format!("t_cell_picn_{j}")
                    && matches!(&t.shape, TemplateShape::Select { .. })
            })
        };
        let picn_ins_range = |b: &TemplateBuilder, j: usize, lo: usize, hi: usize| -> Vec<usize> {
            b.ids(|t| {
                t.table == format!("t_cell_picn_{j}")
                    && matches!(&t.shape, TemplateShape::Insert { tuples, .. } if *tuples >= lo && *tuples <= hi)
            })
        };
        let picn_upd = |b: &TemplateBuilder, j: usize| -> Vec<usize> {
            b.ids(|t| {
                t.table == format!("t_cell_picn_{j}")
                    && matches!(&t.shape, TemplateShape::Update { .. })
            })
        };
        let loc_rm_sel_common =
            b.ids(|t| t.table == "loc_rm" && t.kind() == OpKind::Select && t.weight >= 0.5);
        let loc_rm_sel_rare =
            b.ids(|t| t.table == "loc_rm" && t.kind() == OpKind::Select && t.weight < 0.5);
        let loc_rmf_sel = b.ids(|t| t.table == "loc_rmf" && t.kind() == OpKind::Select);
        let loc_ins_range = |b: &TemplateBuilder,
                             table: &str,
                             lo: usize,
                             hi: usize|
         -> Vec<usize> {
            let table = table.to_string();
            b.ids(|t| {
                t.table == table
                    && matches!(&t.shape, TemplateShape::Insert { tuples, .. } if *tuples >= lo && *tuples <= hi)
            })
        };

        let group = |pool: Vec<usize>, min: usize, max: usize, inter: bool| SlotGroup {
            pool,
            min_picks: min,
            max_picks: max,
            interchangeable: inter,
        };
        let mut workflows = Vec::new();
        for i in 0..10 {
            // The Figure 6 pattern: alternating INSERT/SELECT bursts on one
            // fp table, finished by a picn insert. Footprint ~10 keys.
            workflows.push(WorkflowSpec {
                name: format!("cell-update-{i}"),
                weight: 1.0,
                groups: vec![
                    group(fp_ins_range(&b, i, 1, 4), 1, 2, true),
                    group(fp_sel_range(&b, i, 2, 5), 1, 3, true),
                    group(fp_upd_eq(&b, i), 0, 1, false),
                    group(picn_ins_range(&b, i % 3, 1, 1), 0, 1, false),
                ],
            });
            // Verification sweeps: wider selects plus small re-grids.
            workflows.push(WorkflowSpec {
                name: format!("cell-verify-{i}"),
                weight: 0.5,
                groups: vec![
                    group(fp_sel_range(&b, i, 2, 8), 2, 4, true),
                    group(fp_upd_in(&b, i, 2, 4), 1, 2, true),
                ],
            });
            // Pure read bursts over one table's grid.
            workflows.push(WorkflowSpec {
                name: format!("grid-query-{i}"),
                weight: 0.3,
                groups: vec![group(fp_sel_range(&b, i, 2, 10), 3, 8, true)],
            });
            // Rare batch maintenance tasks, each with a bounded footprint.
            workflows.push(WorkflowSpec {
                name: format!("bulk-ingest-{i}"),
                weight: 0.05,
                groups: vec![
                    group(fp_ins_range(&b, i, 5, 12), 2, 4, true),
                    group(fp_sel_range(&b, i, 9, 12), 1, 2, true),
                ],
            });
            workflows.push(WorkflowSpec {
                name: format!("bulk-refresh-{i}"),
                weight: 0.04,
                groups: vec![
                    group(fp_ins_range(&b, i, 13, 18), 1, 3, true),
                    group(fp_sel_range(&b, i, 13, 18), 1, 3, true),
                ],
            });
            workflows.push(WorkflowSpec {
                name: format!("grid-scan-{i}"),
                weight: 0.04,
                groups: vec![
                    group(fp_sel_range(&b, i, 17, 23), 1, 3, true),
                    group(fp_upd_in(&b, i, 5, 8), 1, 2, true),
                ],
            });
            workflows.push(WorkflowSpec {
                name: format!("reindex-{i}"),
                weight: 0.04,
                groups: vec![
                    group(fp_upd_in(&b, i, 9, 13), 1, 3, true),
                    group(fp_upd_multi(&b, i), 0, 1, false),
                    group(fp_upd_eq(&b, i), 1, 1, false),
                ],
            });
        }
        // Location reporting: auth (picn+fp select pair), read, report.
        for j in 0..3 {
            workflows.push(WorkflowSpec {
                name: format!("location-report-{j}"),
                weight: 1.4,
                groups: vec![
                    group(picn_sel(&b, j), 1, 1, false),
                    group(fp_sel_range(&b, j, 2, 3), 1, 1, false),
                    group(loc_rm_sel_common.clone(), 1, 3, true),
                    group(loc_ins_range(&b, "loc_rmf", 1, 1), 1, 1, false),
                    group(loc_ins_range(&b, "loc_rm", 1, 1), 1, 1, false),
                ],
            });
            workflows.push(WorkflowSpec {
                name: format!("picn-batch-{j}"),
                weight: 0.1,
                groups: vec![
                    group(picn_ins_range(&b, j, 2, 5), 1, 3, true),
                    group(picn_sel(&b, j), 1, 1, false),
                    group(picn_upd(&b, j), 0, 2, true),
                ],
            });
        }
        // Device-record audits and maintenance on loc_rm / loc_rmf.
        workflows.push(WorkflowSpec {
            name: "rm-audit".into(),
            weight: 0.1,
            groups: vec![
                group(loc_rm_sel_rare.clone(), 1, 3, true),
                group(loc_rmf_sel.clone(), 1, 2, true),
            ],
        });
        workflows.push(WorkflowSpec {
            name: "rm-batch".into(),
            weight: 0.06,
            groups: vec![
                group(loc_ins_range(&b, "loc_rm", 2, 5), 1, 3, true),
                group(loc_ins_range(&b, "loc_rmf", 2, 5), 1, 2, true),
            ],
        });
        workflows.push(WorkflowSpec {
            name: "rm-maintenance".into(),
            weight: 0.1,
            groups: vec![
                group(loc_rm_sel_common.clone(), 1, 1, false),
                group(vec![del_rm_dev], 1, 1, false),
            ],
        });
        let other_deletes = b.ids(|t| t.kind() == OpKind::Delete && t.id != del_rm_dev);
        workflows.push(WorkflowSpec {
            name: "purge".into(),
            weight: 0.05,
            groups: vec![
                group(
                    b.ids(|t| {
                        t.table == "loc_rmf" && t.kind() == OpKind::Select && t.weight >= 0.5
                    }),
                    1,
                    1,
                    false,
                ),
                group(other_deletes, 1, 2, true),
            ],
        });

        ScenarioSpec {
            name: "location-service",
            tables,
            templates: b.templates,
            workflows,
            users: (0..40)
                .map(|u| (format!("svc{u}"), format!("10.1.{u}.1")))
                .collect(),
            avg_session_len: 129,
            multi_task_rate: 0.03,
            default_train_sessions: 3722,
        }
    }
}

fn svec(items: &[&str]) -> Vec<String> {
    items.iter().map(|s| s.to_string()).collect()
}

/// Incremental template-pool builder used by the scenario constructors.
struct TemplateBuilder {
    templates: Vec<StatementTemplate>,
}

impl TemplateBuilder {
    fn new() -> Self {
        TemplateBuilder {
            templates: Vec::new(),
        }
    }

    fn push(&mut self, table: &str, shape: TemplateShape, weight: f32) -> usize {
        let id = self.templates.len();
        self.templates.push(StatementTemplate {
            id,
            table: table.to_string(),
            shape,
            weight,
        });
        id
    }

    fn select(
        &mut self,
        table: &str,
        projection: Option<&[&str]>,
        preds: &[(&str, PredShape)],
        weight: f32,
    ) -> usize {
        self.push(
            table,
            TemplateShape::Select {
                projection: projection.map(svec),
                preds: preds.iter().map(|(c, p)| (c.to_string(), *p)).collect(),
            },
            weight,
        )
    }

    fn insert(&mut self, table: &str, cols: &[&str], tuples: usize, weight: f32) -> usize {
        self.push(
            table,
            TemplateShape::Insert {
                cols: svec(cols),
                tuples,
            },
            weight,
        )
    }

    fn update(
        &mut self,
        table: &str,
        set_cols: &[&str],
        preds: &[(&str, PredShape)],
        weight: f32,
    ) -> usize {
        self.push(
            table,
            TemplateShape::Update {
                set_cols: svec(set_cols),
                preds: preds.iter().map(|(c, p)| (c.to_string(), *p)).collect(),
            },
            weight,
        )
    }

    fn delete(&mut self, table: &str, preds: &[(&str, PredShape)], weight: f32) -> usize {
        self.push(
            table,
            TemplateShape::Delete {
                preds: preds.iter().map(|(c, p)| (c.to_string(), *p)).collect(),
            },
            weight,
        )
    }

    fn ids(&self, pred: impl Fn(&StatementTemplate) -> bool) -> Vec<usize> {
        self.templates
            .iter()
            .filter(|t| pred(t))
            .map(|t| t.id)
            .collect()
    }
}

/// A generated session annotated with its interchangeable spans, which the
/// V2 (partial-swap) mutation uses as its "manually verified safe to swap"
/// set.
#[derive(Debug, Clone)]
pub struct AnnotatedSession {
    /// The session.
    pub session: Session,
    /// `(start, len)` spans of order-free operation runs.
    pub swap_spans: Vec<(usize, usize)>,
}

/// Maximum rows kept per table between sessions; the generator truncates
/// larger tables directly in the engine (maintenance that does not appear in
/// the audit log), keeping generation O(sessions).
const TABLE_ROW_CAP: usize = 500;

/// Workflow-driven session generator executing against the audited database.
pub struct SessionGenerator {
    spec: ScenarioSpec,
    adb: AuditedDatabase,
    next_session_id: u64,
    next_day: u64,
}

impl SessionGenerator {
    /// Creates a generator (and the scenario's tables) for `spec`.
    pub fn new(spec: ScenarioSpec) -> Self {
        let mut db = Database::new();
        for t in &spec.tables {
            let cols: Vec<&str> = t.columns.iter().map(String::as_str).collect();
            db.create_table(&t.name, &cols);
        }
        SessionGenerator {
            spec,
            adb: AuditedDatabase::new(db, 0),
            next_session_id: 1,
            next_day: 0,
        }
    }

    /// The scenario specification.
    pub fn spec(&self) -> &ScenarioSpec {
        &self.spec
    }

    /// Generates one normal session.
    pub fn normal_session(&mut self, rng: &mut impl Rng) -> AnnotatedSession {
        let avg = self.spec.avg_session_len as f32;
        let target = (avg * rng.gen_range(0.75..1.25)).round().max(6.0) as usize;
        let (user, ip) = self.pick_user(rng);
        self.session_from_workflows(rng, &user, &ip, target, BUSINESS_HOURS)
    }

    /// A policy-violating noise session: unknown address and off-hours
    /// access (removed by the ABAC stage of preprocessing). Attackers come
    /// from varied addresses, so each violating pair stays below the
    /// policy-learning support threshold.
    pub fn noise_policy_violation(&mut self, rng: &mut impl Rng) -> AnnotatedSession {
        let (user, _) = self.pick_user(rng);
        let ip = format!("198.51.100.{}", rng.gen_range(1..255));
        let target = (self.spec.avg_session_len / 2).max(6);
        self.session_from_workflows(rng, &user, &ip, target, ODD_HOURS)
    }

    /// A structureless noise session of randomly drawn templates (removed by
    /// the DBSCAN stage of preprocessing).
    pub fn noise_rare_pattern(&mut self, rng: &mut impl Rng) -> AnnotatedSession {
        let (user, ip) = self.pick_user(rng);
        let n = self.spec.avg_session_len.max(8);
        let len = rng.gen_range(n / 2..=n);
        let pool: Vec<usize> = (0..self.spec.templates.len()).collect();
        let ids: Vec<usize> = (0..len)
            .map(|_| *pool.choose(rng).expect("non-empty pool"))
            .collect();
        self.emit(rng, &user, &ip, &ids, Vec::new(), BUSINESS_HOURS)
    }

    /// A too-short noise session (removed by the session-length filter).
    pub fn noise_short(&mut self, rng: &mut impl Rng) -> AnnotatedSession {
        let (user, ip) = self.pick_user(rng);
        let wf = self.pick_workflow(rng);
        let ids: Vec<usize> = wf
            .groups
            .first()
            .map(|g| {
                let picks = rng.gen_range(1..=2.min(g.max_picks.max(1)));
                (0..picks)
                    .filter_map(|_| g.pool.choose(rng).copied())
                    .collect()
            })
            .unwrap_or_default();
        self.emit(rng, &user, &ip, &ids, Vec::new(), BUSINESS_HOURS)
    }

    /// Generates a session directly from explicit template ids (used by the
    /// anomaly synthesizers).
    pub fn session_from_templates(
        &mut self,
        rng: &mut impl Rng,
        template_ids: &[usize],
    ) -> AnnotatedSession {
        let (user, ip) = self.pick_user(rng);
        self.emit(rng, &user, &ip, template_ids, Vec::new(), BUSINESS_HOURS)
    }

    /// Re-instantiates and executes an explicit template-id sequence under a
    /// specific identity (used by case-study replays).
    pub fn session_for_user(
        &mut self,
        rng: &mut impl Rng,
        user: &str,
        ip: &str,
        template_ids: &[usize],
    ) -> AnnotatedSession {
        self.emit(rng, user, ip, template_ids, Vec::new(), BUSINESS_HOURS)
    }

    fn pick_user(&self, rng: &mut impl Rng) -> (String, String) {
        let (u, ip) = self.spec.users.choose(rng).expect("users non-empty");
        (u.clone(), ip.clone())
    }

    fn pick_workflow(&self, rng: &mut impl Rng) -> WorkflowSpec {
        let total: f32 = self.spec.workflows.iter().map(|w| w.weight).sum();
        let mut x = rng.gen_range(0.0..total);
        for w in &self.spec.workflows {
            if x < w.weight {
                return w.clone();
            }
            x -= w.weight;
        }
        self.spec
            .workflows
            .last()
            .expect("workflows non-empty")
            .clone()
    }

    fn session_from_workflows(
        &mut self,
        rng: &mut impl Rng,
        user: &str,
        ip: &str,
        target_len: usize,
        hours: (u64, u64),
    ) -> AnnotatedSession {
        let mut ids: Vec<usize> = Vec::with_capacity(target_len + 8);
        let mut spans = Vec::new();
        // Sessions are thematic: one database access serves one task (or a
        // small mix), so each session draws from 1-3 workflow types and
        // repeats them. Beyond realism, this is what gives the paper's
        // negative sampling its signal — keys foreign to a session's task
        // mix are exactly the negatives Trans-DAS learns to score down.
        // Mostly single-task sessions: the per-session distinct-key count
        // stays near the top-p detection budget, as in the paper's traces.
        let n_types = {
            let x: f64 = rng.gen();
            let n = if x < 1.0 - self.spec.multi_task_rate {
                1
            } else {
                2
            };
            n.min(self.spec.workflows.len())
        };
        let mut theme: Vec<WorkflowSpec> = Vec::new();
        let mut guard = 0;
        while theme.len() < n_types && guard < 100 {
            guard += 1;
            let wf = self.pick_workflow(rng);
            if !theme.iter().any(|c| c.name == wf.name) {
                theme.push(wf);
            }
        }
        while ids.len() < target_len {
            let wf = theme.choose(rng).expect("theme non-empty").clone();
            for g in &wf.groups {
                if g.pool.is_empty() {
                    continue;
                }
                let picks = rng.gen_range(g.min_picks..=g.max_picks);
                if picks == 0 {
                    continue;
                }
                let start = ids.len();
                for _ in 0..picks {
                    // Weighted draw from the group pool.
                    let total: f32 = g
                        .pool
                        .iter()
                        .map(|&id| self.spec.templates[id].weight)
                        .sum();
                    let mut x = rng.gen_range(0.0..total.max(f32::MIN_POSITIVE));
                    let mut chosen = g.pool[g.pool.len() - 1];
                    for &id in &g.pool {
                        let w = self.spec.templates[id].weight;
                        if x < w {
                            chosen = id;
                            break;
                        }
                        x -= w;
                    }
                    ids.push(chosen);
                }
                if g.interchangeable && picks > 1 {
                    spans.push((start, picks));
                }
            }
        }
        self.emit(rng, user, ip, &ids, spans, hours)
    }

    fn emit(
        &mut self,
        rng: &mut impl Rng,
        user: &str,
        ip: &str,
        template_ids: &[usize],
        swap_spans: Vec<(usize, usize)>,
        hours: (u64, u64),
    ) -> AnnotatedSession {
        let session_id = self.next_session_id;
        self.next_session_id += 1;
        // Spread sessions over days at the requested hour band.
        let day = self.next_day;
        self.next_day += 1;
        let hour = rng.gen_range(hours.0..hours.1);
        let start = day * 86_400 + hour * 3_600 + rng.gen_range(0..3_000);
        // AuditedDatabase owns a monotone clock; jump it to this session's
        // start (sessions are generated sequentially, detection groups by
        // session id, so absolute interleaving does not matter).
        let now = self.adb.now();
        self.adb.advance_clock(start.saturating_sub(now));
        let ctx = SessionContext {
            user: user.to_string(),
            client_ip: ip.to_string(),
            session_id,
        };
        for &tid in template_ids {
            let stmt = self.spec.templates[tid].instantiate(rng);
            self.adb
                .execute(&ctx, &stmt)
                .expect("scenario templates must be schema-consistent");
            self.adb.advance_clock(rng.gen_range(1..20));
        }
        // Drain, not copy: the generator is long-lived (benchmarks stream
        // tens of thousands of sessions through it), and the audit log
        // would otherwise keep every record it ever produced.
        let ops: Vec<Operation> = self
            .adb
            .log
            .drain()
            .map(|r| Operation {
                sql: r.sql,
                table: r.table,
                kind: r.op,
                timestamp: r.timestamp,
            })
            .collect();
        self.truncate_large_tables();
        AnnotatedSession {
            session: Session {
                id: session_id,
                user: user.to_string(),
                client_ip: ip.to_string(),
                ops,
            },
            swap_spans,
        }
    }

    /// Engine-level maintenance (not audited): keeps table scans bounded.
    fn truncate_large_tables(&mut self) {
        let names: Vec<String> = self.adb.db.table_names().map(str::to_string).collect();
        for name in names {
            if self.adb.db.table(&name).map(Table::row_count).unwrap_or(0) > TABLE_ROW_CAP {
                let stmt = ucad_dbsim::Statement::Delete {
                    table: name,
                    conditions: vec![],
                };
                let _ = self.adb.db.execute(&stmt);
            }
        }
    }
}

use ucad_dbsim::Table;

/// Normal working hours (8:00-20:00).
const BUSINESS_HOURS: (u64, u64) = (8, 20);
/// Off-hours band used by policy-violating noise (0:00-5:00).
const ODD_HOURS: (u64, u64) = (0, 5);

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// FNV-1a over every field of the generated sessions, so a pinned
    /// digest catches any change to the generated stream.
    fn stream_digest(sessions: &[AnnotatedSession]) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes.iter().chain(&[0xff]) {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for s in sessions {
            eat(&s.session.id.to_le_bytes());
            eat(s.session.user.as_bytes());
            eat(s.session.client_ip.as_bytes());
            for op in &s.session.ops {
                eat(op.sql.as_bytes());
                eat(op.table.as_bytes());
                eat(format!("{:?}", op.kind).as_bytes());
                eat(&op.timestamp.to_le_bytes());
            }
            for &(start, len) in &s.swap_spans {
                eat(&(start as u64).to_le_bytes());
                eat(&(len as u64).to_le_bytes());
            }
        }
        h
    }

    #[test]
    fn generator_keeps_no_records_and_its_stream_is_pinned() {
        let mut sessions = Vec::new();
        for (spec, count) in [
            (ScenarioSpec::commenting(), 40),
            (ScenarioSpec::location_service(), 5),
        ] {
            let mut g = SessionGenerator::new(spec);
            let mut rng = StdRng::seed_from_u64(2022);
            for _ in 0..count {
                sessions.push(g.normal_session(&mut rng));
                assert!(
                    g.adb.log.is_empty(),
                    "the generator retained {} audit records",
                    g.adb.log.len()
                );
            }
        }
        // Pinned before the audit log was drained: draining must not
        // change a single generated byte.
        assert_eq!(stream_digest(&sessions), 0xe407_a58c_15e4_7f80);
    }

    #[test]
    fn commenting_spec_matches_table1_key_counts() {
        let spec = ScenarioSpec::commenting();
        assert_eq!(spec.tables.len(), 7);
        assert_eq!(spec.templates.len(), 20);
        assert_eq!(spec.key_counts(), (7, 4, 4, 5));
    }

    #[test]
    fn location_spec_matches_table1_key_counts() {
        let spec = ScenarioSpec::location_service();
        assert_eq!(spec.tables.len(), 15);
        assert_eq!(spec.templates.len(), 593);
        let (s, i, u, d) = spec.key_counts();
        assert_eq!((s, u, d), (238, 146, 4));
        assert_eq!(s + i + u + d, 593);
    }

    #[test]
    fn template_ids_are_dense_and_consistent() {
        for spec in [ScenarioSpec::commenting(), ScenarioSpec::location_service()] {
            for (i, t) in spec.templates.iter().enumerate() {
                assert_eq!(t.id, i);
            }
            // Every workflow pool references valid ids.
            for wf in &spec.workflows {
                for g in &wf.groups {
                    assert!(g.min_picks <= g.max_picks, "bad picks in {}", wf.name);
                    for &id in &g.pool {
                        assert!(id < spec.templates.len());
                    }
                }
            }
        }
    }

    #[test]
    fn every_template_is_reachable_via_some_workflow() {
        // A3 misoperations must be rare *known* operations, so every
        // statement key has to be producible by normal traffic.
        for spec in [ScenarioSpec::commenting(), ScenarioSpec::location_service()] {
            let mut reachable = vec![false; spec.templates.len()];
            for wf in &spec.workflows {
                for g in &wf.groups {
                    for &id in &g.pool {
                        reachable[id] = true;
                    }
                }
            }
            let missing: Vec<usize> = reachable
                .iter()
                .enumerate()
                .filter(|(_, &r)| !r)
                .map(|(i, _)| i)
                .collect();
            assert!(
                missing.is_empty(),
                "{}: {} unreachable templates, e.g. {:?}",
                spec.name,
                missing.len(),
                &missing[..missing.len().min(5)]
            );
        }
    }

    #[test]
    fn normal_sessions_have_calibrated_length() {
        let mut g = SessionGenerator::new(ScenarioSpec::commenting());
        let mut rng = StdRng::seed_from_u64(7);
        let sessions: Vec<_> = (0..50).map(|_| g.normal_session(&mut rng)).collect();
        let avg: f32 =
            sessions.iter().map(|s| s.session.len() as f32).sum::<f32>() / sessions.len() as f32;
        assert!(
            (avg - 24.0).abs() < 8.0,
            "average session length {} too far from 24",
            avg
        );
        // Sessions execute real SQL: every op parses.
        for s in &sessions {
            for op in &s.session.ops {
                assert!(
                    ucad_dbsim::parse(&op.sql).is_ok(),
                    "unparseable op: {}",
                    op.sql
                );
            }
        }
    }

    #[test]
    fn swap_spans_are_in_bounds() {
        let mut g = SessionGenerator::new(ScenarioSpec::commenting());
        let mut rng = StdRng::seed_from_u64(8);
        for _ in 0..20 {
            let s = g.normal_session(&mut rng);
            for &(start, len) in &s.swap_spans {
                assert!(len >= 2);
                assert!(start + len <= s.session.len());
            }
        }
    }

    #[test]
    fn timestamps_are_monotone_within_session() {
        let mut g = SessionGenerator::new(ScenarioSpec::location_service());
        let mut rng = StdRng::seed_from_u64(9);
        let s = g.normal_session(&mut rng).session;
        for w in s.ops.windows(2) {
            assert!(w[0].timestamp <= w[1].timestamp);
        }
        assert!(
            s.len() >= 60,
            "location sessions should be long, got {}",
            s.len()
        );
    }

    #[test]
    fn policy_violation_uses_unknown_address_and_odd_hours() {
        let mut g = SessionGenerator::new(ScenarioSpec::commenting());
        let mut rng = StdRng::seed_from_u64(10);
        let s = g.noise_policy_violation(&mut rng).session;
        assert!(
            s.client_ip.starts_with("198.51.100."),
            "unexpected noise ip {}",
            s.client_ip
        );
        let hour = (s.ops[0].timestamp % 86_400) / 3_600;
        assert!(hour < 6, "expected off-hours start, got hour {hour}");
    }

    #[test]
    fn short_noise_sessions_are_short() {
        let mut g = SessionGenerator::new(ScenarioSpec::commenting());
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..10 {
            let s = g.noise_short(&mut rng).session;
            assert!(s.len() <= 4, "short session of length {}", s.len());
        }
    }

    #[test]
    fn rare_templates_exist_for_misoperation_synthesis() {
        let spec = ScenarioSpec::commenting();
        assert!(!spec.rare_template_ids(0.2).is_empty());
        let spec = ScenarioSpec::location_service();
        assert!(spec.rare_template_ids(0.1).len() >= 10);
    }
}
