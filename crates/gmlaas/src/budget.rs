//! Task budgets (the `Task Budget` JSON of Fig. 8).

/// What the selector optimises among budget-feasible methods.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Priority {
    /// Maximise the expected model quality (the paper's `ModelScore`).
    #[default]
    ModelScore,
    /// Minimise estimated training time.
    TrainingTime,
    /// Minimise estimated training memory.
    Memory,
}

/// Resource envelope a training request must respect.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TaskBudget {
    /// Peak-memory cap in bytes (`MaxMemory`).
    pub max_memory_bytes: Option<usize>,
    /// Training-time cap in seconds (`MaxTime`).
    pub max_time_s: Option<f64>,
    /// Selection priority.
    pub priority: Priority,
}

impl TaskBudget {
    /// Unconstrained budget with the default priority.
    pub fn unlimited() -> Self {
        TaskBudget::default()
    }

    /// Budget capped by memory only.
    pub fn with_memory(bytes: usize) -> Self {
        TaskBudget { max_memory_bytes: Some(bytes), ..Default::default() }
    }

    /// Parse the human-readable forms used in SPARQL-ML JSON:
    /// `"50GB"`, `"512MB"`, `"100000"` (bytes).
    pub fn parse_memory(text: &str) -> Option<usize> {
        let t = text.trim().to_ascii_uppercase();
        let (num, mult) = if let Some(stripped) = t.strip_suffix("GB") {
            (stripped, 1024usize * 1024 * 1024)
        } else if let Some(stripped) = t.strip_suffix("MB") {
            (stripped, 1024 * 1024)
        } else if let Some(stripped) = t.strip_suffix("KB") {
            (stripped, 1024)
        } else if let Some(stripped) = t.strip_suffix('B') {
            (stripped, 1)
        } else {
            (t.as_str(), 1)
        };
        let value: f64 = num.trim().parse().ok()?;
        Some((value * mult as f64) as usize)
    }

    /// Parse `"1h"`, `"30m"`, `"45s"` or plain seconds.
    pub fn parse_time(text: &str) -> Option<f64> {
        let t = text.trim().to_ascii_lowercase();
        let (num, mult) = if let Some(stripped) = t.strip_suffix('h') {
            (stripped, 3600.0)
        } else if let Some(stripped) = t.strip_suffix('m') {
            (stripped, 60.0)
        } else if let Some(stripped) = t.strip_suffix('s') {
            (stripped, 1.0)
        } else {
            (t.as_str(), 1.0)
        };
        let value: f64 = num.trim().parse().ok()?;
        Some(value * mult)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_memory_units() {
        assert_eq!(TaskBudget::parse_memory("50GB"), Some(50 * 1024 * 1024 * 1024));
        assert_eq!(TaskBudget::parse_memory("512MB"), Some(512 * 1024 * 1024));
        assert_eq!(TaskBudget::parse_memory("1024"), Some(1024));
        assert_eq!(TaskBudget::parse_memory("2kb"), Some(2048));
        assert_eq!(TaskBudget::parse_memory("junk"), None);
    }

    #[test]
    fn parse_time_units() {
        assert_eq!(TaskBudget::parse_time("1h"), Some(3600.0));
        assert_eq!(TaskBudget::parse_time("30m"), Some(1800.0));
        assert_eq!(TaskBudget::parse_time("45s"), Some(45.0));
        assert_eq!(TaskBudget::parse_time("12"), Some(12.0));
    }

    #[test]
    fn default_is_unconstrained_model_score() {
        let b = TaskBudget::unlimited();
        assert!(b.max_memory_bytes.is_none());
        assert!(b.max_time_s.is_none());
        assert_eq!(b.priority, Priority::ModelScore);
    }
}
