//! Serialisable experiment reports.

use std::fmt;

use sp_json::{json, JsonError, Value};

use crate::Table;

/// A titled table inside a [`Report`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NamedTable {
    /// Section name (e.g. `"PoA sweep"`).
    pub name: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Data rows (stringified values).
    pub rows: Vec<Vec<String>>,
}

impl NamedTable {
    /// Wraps a [`Table`] with a name.
    #[must_use]
    fn from_table(name: &str, table: &Table) -> Self {
        NamedTable {
            name: name.to_owned(),
            headers: table.headers().to_vec(),
            rows: table.rows().to_vec(),
        }
    }

    /// Rebuilds the displayable [`Table`].
    #[must_use]
    fn to_table(&self) -> Table {
        let mut t = Table::new(self.headers.clone());
        for row in &self.rows {
            t.push_row(row.clone());
        }
        t
    }
}

/// A machine- and human-readable experiment report.
///
/// # Example
///
/// ```
/// use sp_analysis::{Report, Table};
///
/// let mut t = Table::new(vec!["n", "cost"]);
/// t.push_row(vec!["4".into(), "10".into()]);
/// let mut r = Report::new("E2", "Lemma 4.3 cost scaling");
/// r.push_note("alpha = 3.4");
/// r.push_table("costs", &t);
/// assert!(r.to_json().contains("\"E2\""));
/// assert!(r.to_string().contains("Lemma 4.3"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Report {
    /// Experiment identifier (`"E1"` … `"E9"`).
    pub id: String,
    /// Human-readable title.
    pub title: String,
    /// Free-form notes (parameters, verdicts).
    pub notes: Vec<String>,
    /// Result tables.
    pub tables: Vec<NamedTable>,
}

impl Report {
    /// Creates an empty report.
    #[must_use]
    pub fn new(id: &str, title: &str) -> Self {
        Report {
            id: id.to_owned(),
            title: title.to_owned(),
            notes: Vec::new(),
            tables: Vec::new(),
        }
    }

    /// Appends a note line.
    pub fn push_note<S: Into<String>>(&mut self, note: S) {
        self.notes.push(note.into());
    }

    /// Appends a named table.
    pub fn push_table(&mut self, name: &str, table: &Table) {
        self.tables.push(NamedTable::from_table(name, table));
    }

    /// Serialises to pretty JSON.
    #[must_use]
    pub fn to_json(&self) -> String {
        let tables: Vec<Value> = self
            .tables
            .iter()
            .map(|t| {
                json!({
                    "name": t.name.as_str(),
                    "headers": t.headers.clone(),
                    "rows": Value::Array(
                        t.rows.iter().map(|r| Value::from(r.clone())).collect(),
                    ),
                })
            })
            .collect();
        json!({
            "id": self.id.as_str(),
            "title": self.title.as_str(),
            "notes": self.notes.clone(),
            "tables": Value::Array(tables),
        })
        .to_string_pretty()
    }

    /// Parses a report back from JSON.
    ///
    /// # Errors
    ///
    /// Returns the underlying [`JsonError`] for malformed input, or a
    /// synthetic one when a required field is missing or mistyped.
    pub fn from_json(s: &str) -> Result<Self, JsonError> {
        let v: Value = s.parse()?;
        let field_err = |what: &str| JsonError {
            message: format!("report: {what}"),
            offset: 0,
        };
        let str_field = |v: &Value, key: &str| -> Result<String, JsonError> {
            v.get(key)
                .and_then(Value::as_str)
                .map(str::to_owned)
                .ok_or_else(|| field_err(&format!("missing string field '{key}'")))
        };
        let str_array = |v: &Value, key: &str| -> Result<Vec<String>, JsonError> {
            v.get(key)
                .and_then(Value::as_array)
                .ok_or_else(|| field_err(&format!("missing array field '{key}'")))?
                .iter()
                .map(|s| {
                    s.as_str()
                        .map(str::to_owned)
                        .ok_or_else(|| field_err(&format!("non-string entry in '{key}'")))
                })
                .collect()
        };
        let mut tables = Vec::new();
        for t in v
            .get("tables")
            .and_then(Value::as_array)
            .ok_or_else(|| field_err("missing array field 'tables'"))?
        {
            let rows = t
                .get("rows")
                .and_then(Value::as_array)
                .ok_or_else(|| field_err("missing array field 'rows'"))?
                .iter()
                .map(|row| {
                    row.as_array()
                        .ok_or_else(|| field_err("non-array row"))?
                        .iter()
                        .map(|cell| {
                            cell.as_str()
                                .map(str::to_owned)
                                .ok_or_else(|| field_err("non-string cell"))
                        })
                        .collect::<Result<Vec<String>, JsonError>>()
                })
                .collect::<Result<Vec<Vec<String>>, JsonError>>()?;
            tables.push(NamedTable {
                name: str_field(t, "name")?,
                headers: str_array(t, "headers")?,
                rows,
            });
        }
        Ok(Report {
            id: str_field(&v, "id")?,
            title: str_field(&v, "title")?,
            notes: str_array(&v, "notes")?,
            tables,
        })
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "=== {} — {} ===", self.id, self.title)?;
        for note in &self.notes {
            writeln!(f, "  {note}")?;
        }
        for t in &self.tables {
            writeln!(f, "\n[{}]", t.name)?;
            write!(f, "{}", t.to_table())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Report {
        let mut t = Table::new(vec!["k", "v"]);
        t.push_row(vec!["a".into(), "1".into()]);
        let mut r = Report::new("EX", "example");
        r.push_note("note-1");
        r.push_table("tbl", &t);
        r
    }

    #[test]
    fn json_roundtrip() {
        let r = sample();
        let back = Report::from_json(&r.to_json()).unwrap();
        assert_eq!(r, back);
    }

    #[test]
    fn display_contains_everything() {
        let s = sample().to_string();
        assert!(s.contains("EX"));
        assert!(s.contains("note-1"));
        assert!(s.contains("[tbl]"));
        assert!(s.contains('v'));
    }

    #[test]
    fn named_table_roundtrip() {
        let mut t = Table::new(vec!["x"]);
        t.push_row(vec!["9".into()]);
        let nt = NamedTable::from_table("n", &t);
        assert_eq!(nt.to_table(), t);
    }

    #[test]
    fn from_json_rejects_garbage() {
        assert!(Report::from_json("{nope").is_err());
    }
}
