//! Audit logging: the raw input UCAD consumes.
//!
//! Every executed statement produces a [`LogRecord`] carrying the attributes
//! the paper's preprocessing uses for access-control filtering: user
//! identity, client address, timestamp, target table and the raw SQL text.

use crate::ast::{OpKind, Statement};
use crate::engine::{Database, ExecError, ExecResult};
use serde::{Deserialize, Serialize};

/// One audit-log entry.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LogRecord {
    /// Seconds since an arbitrary epoch.
    pub timestamp: u64,
    /// Authenticated user account.
    pub user: String,
    /// Client address the connection came from.
    pub client_ip: String,
    /// Identifier grouping records into a user session.
    pub session_id: u64,
    /// Raw SQL text as submitted.
    pub sql: String,
    /// Table the statement targeted.
    pub table: String,
    /// Operation kind.
    pub op: OpKind,
    /// Rows returned or affected.
    pub rows: usize,
}

/// Append-only audit log.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct AuditLog {
    records: Vec<LogRecord>,
}

impl AuditLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// All records in execution order.
    pub fn records(&self) -> &[LogRecord] {
        &self.records
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when the log holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Appends a record.
    pub fn push(&mut self, record: LogRecord) {
        self.records.push(record);
    }

    /// Removes and yields every record in execution order. A producer that
    /// hands records on as it goes drains them, so the log holds only the
    /// records not yet consumed instead of everything ever executed.
    pub fn drain(&mut self) -> std::vec::Drain<'_, LogRecord> {
        self.records.drain(..)
    }

    /// Groups records into sessions by `session_id`, preserving execution
    /// order inside each session. Sessions are returned in order of first
    /// appearance.
    pub fn sessions(&self) -> Vec<Vec<&LogRecord>> {
        let mut order: Vec<u64> = Vec::new();
        let mut map: std::collections::HashMap<u64, Vec<&LogRecord>> =
            std::collections::HashMap::new();
        for r in &self.records {
            let entry = map.entry(r.session_id).or_insert_with(|| {
                order.push(r.session_id);
                Vec::new()
            });
            entry.push(r);
        }
        order
            .into_iter()
            .map(|id| map.remove(&id).expect("inserted"))
            .collect()
    }
}

/// Execution context attached to each logged statement.
#[derive(Debug, Clone)]
pub struct SessionContext {
    /// Authenticated user.
    pub user: String,
    /// Client address.
    pub client_ip: String,
    /// Session identifier.
    pub session_id: u64,
}

/// A [`Database`] wrapper that records every executed statement.
#[derive(Debug, Default)]
pub struct AuditedDatabase {
    /// Underlying engine.
    pub db: Database,
    /// Recorded log.
    pub log: AuditLog,
    clock: u64,
}

impl AuditedDatabase {
    /// Wraps a database starting the logical clock at `start_time`.
    pub fn new(db: Database, start_time: u64) -> Self {
        AuditedDatabase {
            db,
            log: AuditLog::new(),
            clock: start_time,
        }
    }

    /// Current logical time.
    pub fn now(&self) -> u64 {
        self.clock
    }

    /// Advances the logical clock (seconds).
    pub fn advance_clock(&mut self, seconds: u64) {
        self.clock += seconds;
    }

    /// Executes `stmt` under `ctx`, logging it regardless of outcome
    /// (failed statements still appear in real audit logs; they record 0
    /// affected rows).
    pub fn execute(
        &mut self,
        ctx: &SessionContext,
        stmt: &Statement,
    ) -> Result<ExecResult, ExecError> {
        let result = self.db.execute(stmt);
        let rows = result.as_ref().map(ExecResult::row_count).unwrap_or(0);
        self.log.push(LogRecord {
            timestamp: self.clock,
            user: ctx.user.clone(),
            client_ip: ctx.client_ip.clone(),
            session_id: ctx.session_id,
            sql: stmt.to_string(),
            table: stmt.table().to_string(),
            op: stmt.op_kind(),
            rows,
        });
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    #[test]
    fn execution_is_logged_with_context() {
        let mut db = Database::new();
        db.create_table("t", &["a"]);
        let mut adb = AuditedDatabase::new(db, 1000);
        let ctx = SessionContext {
            user: "user1".into(),
            client_ip: "10.0.0.1".into(),
            session_id: 7,
        };
        adb.execute(&ctx, &parse("INSERT INTO t (a) VALUES (1)").unwrap())
            .unwrap();
        adb.advance_clock(5);
        adb.execute(&ctx, &parse("SELECT * FROM t").unwrap())
            .unwrap();
        assert_eq!(adb.log.len(), 2);
        let r = &adb.log.records()[1];
        assert_eq!(r.timestamp, 1005);
        assert_eq!(r.user, "user1");
        assert_eq!(r.rows, 1);
        assert_eq!(r.op, OpKind::Select);
    }

    #[test]
    fn drain_empties_the_log_in_execution_order() {
        let mut db = Database::new();
        db.create_table("t", &["a"]);
        let mut adb = AuditedDatabase::new(db, 0);
        let ctx = SessionContext {
            user: "u".into(),
            client_ip: "ip".into(),
            session_id: 1,
        };
        for sql in ["INSERT INTO t (a) VALUES (1)", "SELECT * FROM t"] {
            adb.execute(&ctx, &parse(sql).unwrap()).unwrap();
        }
        let drained: Vec<OpKind> = adb.log.drain().map(|r| r.op).collect();
        assert_eq!(drained, vec![OpKind::Insert, OpKind::Select]);
        assert!(adb.log.is_empty());
    }

    #[test]
    fn failed_statements_are_still_logged() {
        let mut adb = AuditedDatabase::new(Database::new(), 0);
        let ctx = SessionContext {
            user: "u".into(),
            client_ip: "ip".into(),
            session_id: 1,
        };
        let err = adb.execute(&ctx, &parse("SELECT * FROM missing").unwrap());
        assert!(err.is_err());
        assert_eq!(adb.log.len(), 1);
        assert_eq!(adb.log.records()[0].rows, 0);
    }

    #[test]
    fn sessions_group_and_preserve_order() {
        let mut adb = AuditedDatabase::new(Database::new(), 0);
        let mut db_inner = Database::new();
        db_inner.create_table("t", &["a"]);
        adb.db = db_inner;
        let c1 = SessionContext {
            user: "u1".into(),
            client_ip: "a".into(),
            session_id: 1,
        };
        let c2 = SessionContext {
            user: "u2".into(),
            client_ip: "b".into(),
            session_id: 2,
        };
        // Interleave the two sessions.
        adb.execute(&c1, &parse("INSERT INTO t (a) VALUES (1)").unwrap())
            .unwrap();
        adb.execute(&c2, &parse("INSERT INTO t (a) VALUES (2)").unwrap())
            .unwrap();
        adb.execute(&c1, &parse("SELECT * FROM t").unwrap())
            .unwrap();
        let sessions = adb.log.sessions();
        assert_eq!(sessions.len(), 2);
        assert_eq!(sessions[0].len(), 2);
        assert_eq!(sessions[0][0].user, "u1");
        assert_eq!(sessions[1].len(), 1);
    }
}
