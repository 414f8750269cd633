//! Exact, repeatable values one iteration produces — quality figures,
//! counts and checksums — and their comparison with the committed
//! reference in `perf/expected/<workload>.json`.

use crate::json::Json;

/// A quality figure may be this much worse than its reference before
/// the cell that produced it counts as failed.
pub const QUALITY_TOLERANCE: f64 = 0.02;

/// One exact value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Fact {
    /// Lower-is-better quality figure, gated against the reference.
    Quality(f64),
    /// Any other exact float from a report.
    Float(f64),
    /// An exact count.
    Count(u64),
    /// An FNV-1a checksum of an assignment or report.
    Hash(u64),
}

impl Fact {
    /// The value as a number (checksums have none worth reporting).
    pub fn value(&self) -> Option<f64> {
        match *self {
            Fact::Quality(x) | Fact::Float(x) => Some(x),
            Fact::Count(n) => Some(n as f64),
            Fact::Hash(_) => None,
        }
    }

    fn to_json(self) -> Json {
        match self {
            Fact::Quality(x) => Json::Obj(vec![("quality".into(), Json::Num(x))]),
            Fact::Float(x) => Json::Obj(vec![("float".into(), Json::Num(x))]),
            Fact::Count(n) => Json::Obj(vec![("count".into(), Json::Num(n as f64))]),
            Fact::Hash(h) => Json::Obj(vec![("fnv1a".into(), Json::Str(format!("{h:016x}")))]),
        }
    }

    fn from_json(v: &Json) -> Option<Fact> {
        let (kind, payload) = v.as_object()?.first()?;
        match kind.as_str() {
            "quality" => payload.as_f64().map(Fact::Quality),
            "float" => payload.as_f64().map(Fact::Float),
            "count" => payload.as_f64().map(|x| Fact::Count(x as u64)),
            "fnv1a" => u64::from_str_radix(payload.as_str()?, 16).ok().map(Fact::Hash),
            _ => None,
        }
    }
}

/// Named facts in the order the iteration produced them.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Facts(Vec<(String, Fact)>);

impl Facts {
    pub fn push(&mut self, name: impl Into<String>, fact: Fact) {
        self.0.push((name.into(), fact));
    }

    pub fn iter(&self) -> impl Iterator<Item = &(String, Fact)> {
        self.0.iter()
    }

    pub fn get(&self, name: &str) -> Option<Fact> {
        self.0.iter().find(|(n, _)| n == name).map(|&(_, f)| f)
    }

    /// Numeric value of fact `name`, or 0 when absent.
    pub fn value(&self, name: &str) -> f64 {
        self.get(name).and_then(|f| f.value()).unwrap_or(0.0)
    }

    /// Names of quality figures worse than `reference` by more than
    /// [`QUALITY_TOLERANCE`]. Figures the reference lacks are not gated.
    pub fn quality_regressions(&self, reference: &Facts) -> Vec<String> {
        self.0
            .iter()
            .filter_map(|(name, fact)| match (fact, reference.get(name)) {
                (Fact::Quality(got), Some(Fact::Quality(want)))
                    if *got > want * (1.0 + QUALITY_TOLERANCE) =>
                {
                    Some(format!("{name}: {got} vs reference {want}"))
                }
                _ => None,
            })
            .collect()
    }

    pub fn from_json(v: &Json) -> Option<Facts> {
        v.as_object()?
            .iter()
            .map(|(n, f)| Fact::from_json(f).map(|f| (n.clone(), f)))
            .collect::<Option<Vec<_>>>()
            .map(Facts)
    }
}

/// The committed reference of one workload: the facts of one seed.
pub struct Expected {
    pub seed: u64,
    pub facts: Facts,
}

impl Expected {
    pub fn path(workload: &str) -> String {
        format!("perf/expected/{workload}.json")
    }

    /// Reads the reference; `None` when absent or unreadable.
    pub fn load(workload: &str) -> Option<Expected> {
        Self::parse(&std::fs::read_to_string(Self::path(workload)).ok()?)
    }

    fn parse(text: &str) -> Option<Expected> {
        let doc = crate::json::parse(text).ok()?;
        Some(Expected {
            seed: doc.get("seed")?.as_f64()? as u64,
            facts: Facts::from_json(doc.get("facts")?)?,
        })
    }

    /// One fact per line, so a re-bless diffs fact by fact.
    fn render(&self, workload: &str) -> String {
        let facts: Vec<String> = self
            .facts
            .iter()
            .map(|(name, fact)| {
                format!("    {}: {}", Json::Str(name.clone()).to_line(), fact.to_json().to_line())
            })
            .collect();
        format!(
            "{{\n  \"workload\": {},\n  \"seed\": {},\n  \"facts\": {{\n{}\n  }}\n}}\n",
            Json::Str(workload.into()).to_line(),
            self.seed,
            facts.join(",\n")
        )
    }

    /// Writes the reference (the re-bless path).
    pub fn store(&self, workload: &str) -> std::io::Result<()> {
        std::fs::create_dir_all("perf/expected")?;
        std::fs::write(Self::path(workload), self.render(workload))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Facts {
        let mut f = Facts::default();
        f.push("HDRF.replication_factor", Fact::Quality(2.125));
        f.push("LDG.availability", Fact::Float(0.1 + 0.2));
        f.push("sssp.supersteps", Fact::Count(739));
        f.push("HDRF.assignment", Fact::Hash(0xdead_beef_0123_4567));
        f
    }

    #[test]
    fn reference_files_round_trip_exactly() {
        let text = Expected { seed: 42, facts: sample() }.render("some-workload");
        let back = Expected::parse(&text).unwrap();
        assert_eq!((back.seed, back.facts), (42, sample()));
    }

    #[test]
    fn only_quality_worse_than_tolerance_is_a_regression() {
        let reference = sample();
        let mut run = Facts::default();
        run.push("HDRF.replication_factor", Fact::Quality(2.125 * 1.019));
        run.push("sssp.supersteps", Fact::Count(1));
        run.push("new.figure", Fact::Quality(9.0));
        assert!(run.quality_regressions(&reference).is_empty());
        let mut worse = Facts::default();
        worse.push("HDRF.replication_factor", Fact::Quality(2.125 * 1.021));
        assert_eq!(worse.quality_regressions(&reference).len(), 1);
    }
}
