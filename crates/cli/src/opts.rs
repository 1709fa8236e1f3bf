//! Tiny hand-rolled option parsing shared by the subcommands.

use adhls_core::sched::Flow;

/// Parsed `--key value` options plus positional arguments.
#[derive(Debug, Default)]
pub struct Opts {
    pub positional: Vec<String>,
    pairs: Vec<(String, String)>,
    flags: Vec<String>,
}

impl Opts {
    /// Splits `args` into positionals, options from `valued` (which consume
    /// the next argument), and boolean flags from `bools`. Any other
    /// `--name` is an error rather than a silent boolean, so a typo like
    /// `--thread 4` fails loudly instead of leaking `4` into positionals.
    pub fn parse(args: &[String], valued: &[&str], bools: &[&str]) -> Result<Opts, String> {
        let mut o = Opts::default();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            if let Some(key) = a.strip_prefix("--") {
                // `--key=value` form, accepted for every valued option. A
                // boolean flag takes no value: accepting `--flag=v` would
                // leave `v` unread and the flag unset.
                if let Some((k, v)) = a.split_once('=') {
                    if valued.contains(&k) {
                        o.pairs.push((k.to_string(), v.to_string()));
                        continue;
                    }
                    if bools.contains(&k) {
                        return Err(format!("`{k}` takes no value"));
                    }
                    let (name, _) = key.split_once('=').unwrap_or((key, ""));
                    return Err(format!("unknown option --{name} (see `adhls help`)"));
                }
                if valued.contains(&a.as_str()) {
                    let v = it
                        .next()
                        .ok_or_else(|| format!("--{key} requires a value"))?;
                    o.pairs.push((a.clone(), v.clone()));
                } else if bools.contains(&a.as_str()) {
                    o.flags.push(a.clone());
                } else {
                    return Err(format!("unknown option --{key} (see `adhls help`)"));
                }
            } else {
                o.positional.push(a.clone());
            }
        }
        Ok(o)
    }

    /// Last value of a `--key value` option.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.pairs
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Every value of a repeatable `--key value` option, in the order
    /// given (e.g. `--constraint area<=1500 --constraint power<=40`).
    pub fn values(&self, key: &str) -> Vec<&str> {
        self.pairs
            .iter()
            .filter(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
            .collect()
    }

    /// Whether a boolean `--flag` was passed.
    pub fn flag(&self, key: &str) -> bool {
        self.flags.iter().any(|f| f == key)
    }

    /// Parses `--key` as `T`, with a default.
    pub fn num<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("{key}: `{v}` is not a valid number")),
        }
    }

    /// Parses a comma-separated `--key` list as `Vec<T>`.
    pub fn list<T: std::str::FromStr>(&self, key: &str) -> Result<Option<Vec<T>>, String> {
        let Some(raw) = self.get(key) else {
            return Ok(None);
        };
        raw.split(',')
            .map(|s| {
                s.trim()
                    .parse()
                    .map_err(|_| format!("{key}: `{s}` is not a valid number"))
            })
            .collect::<Result<Vec<T>, String>>()
            .map(Some)
    }

    /// Parses `--pipeline` as a list of modes (`none` | integer II).
    pub fn pipeline_modes(&self) -> Result<Option<Vec<Option<u32>>>, String> {
        let Some(raw) = self.get("--pipeline") else {
            return Ok(None);
        };
        raw.split(',')
            .map(|s| {
                let s = s.trim();
                if s.eq_ignore_ascii_case("none") || s.eq_ignore_ascii_case("off") {
                    Ok(None)
                } else {
                    s.parse::<u32>()
                        .map(Some)
                        .map_err(|_| format!("--pipeline: `{s}` is not `none` or an II"))
                }
            })
            .collect::<Result<Vec<Option<u32>>, String>>()
            .map(Some)
    }
}

/// Parses `--flow` names.
pub fn parse_flow(s: &str) -> Result<Flow, String> {
    match s {
        "conv" | "conventional" => Ok(Flow::Conventional),
        "slow" | "slowest" | "slowest-upgrade" => Ok(Flow::SlowestUpgrade),
        "slack" | "slack-based" => Ok(Flow::SlackBased),
        other => Err(format!("unknown flow `{other}` (conv | slow | slack)")),
    }
}

/// Writes `content` to `path`, or to stdout when `path` is `-`.
pub fn write_out(path: &str, content: &str, what: &str) -> Result<(), String> {
    if path == "-" {
        print!("{content}");
        return Ok(());
    }
    std::fs::write(path, content).map_err(|e| format!("writing {what} to {path}: {e}"))?;
    eprintln!("wrote {what} to {path}");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &[&str]) -> Vec<String> {
        s.iter().map(|a| (*a).to_string()).collect()
    }

    #[test]
    fn valued_flags_and_positionals_separate() {
        let o = Opts::parse(
            &args(&["file.dsl", "--clock", "1500", "--json", "--flow", "slack"]),
            &["--clock", "--flow"],
            &["--json"],
        )
        .unwrap();
        assert_eq!(o.positional, ["file.dsl"]);
        assert_eq!(o.get("--clock"), Some("1500"));
        assert_eq!(o.get("--flow"), Some("slack"));
        assert!(o.flag("--json"));
        assert!(!o.flag("--csv"));
    }

    #[test]
    fn missing_value_is_an_error() {
        assert!(Opts::parse(&args(&["--clock"]), &["--clock"], &[]).is_err());
    }

    #[test]
    fn unknown_option_is_an_error() {
        let err =
            Opts::parse(&args(&["--thread", "4"]), &["--threads"], &["--serial"]).unwrap_err();
        assert!(err.contains("unknown option --thread"), "{err}");
    }

    #[test]
    fn lists_and_numbers_parse() {
        let o = Opts::parse(
            &args(&["--clocks", "1100, 1400,1800", "--threads", "4"]),
            &["--clocks", "--threads"],
            &[],
        )
        .unwrap();
        assert_eq!(
            o.list::<u64>("--clocks").unwrap(),
            Some(vec![1100, 1400, 1800])
        );
        assert_eq!(o.num("--threads", 0usize).unwrap(), 4);
        assert_eq!(o.num("--count", 7usize).unwrap(), 7);
        assert!(o.num::<u64>("--clocks", 0).is_err());
    }

    #[test]
    fn pipeline_modes_accept_none_and_iis() {
        let o = Opts::parse(&args(&["--pipeline", "none,8,4"]), &["--pipeline"], &[]).unwrap();
        assert_eq!(
            o.pipeline_modes().unwrap(),
            Some(vec![None, Some(8), Some(4)])
        );
        assert!(
            Opts::parse(&args(&["--pipeline", "x"]), &["--pipeline"], &[])
                .unwrap()
                .pipeline_modes()
                .is_err()
        );
    }

    #[test]
    fn flow_names_parse() {
        use adhls_core::sched::Flow;
        assert_eq!(parse_flow("conv").unwrap(), Flow::Conventional);
        assert_eq!(parse_flow("slow").unwrap(), Flow::SlowestUpgrade);
        assert_eq!(parse_flow("slack-based").unwrap(), Flow::SlackBased);
        assert!(parse_flow("warp").is_err());
    }

    #[test]
    fn repeatable_options_collect_every_value_in_order() {
        let o = Opts::parse(
            &args(&["--constraint", "area<=1500", "--constraint", "power<=40"]),
            &["--constraint"],
            &[],
        )
        .unwrap();
        assert_eq!(o.values("--constraint"), ["area<=1500", "power<=40"]);
        assert!(o.values("--missing").is_empty());
    }

    #[test]
    fn equals_form_and_switches_parse() {
        let o = Opts::parse(
            &args(&["--clock=1500", "--skip-infeasible"]),
            &["--clock"],
            &["--skip-infeasible"],
        )
        .unwrap();
        assert_eq!(o.get("--clock"), Some("1500"));
        assert!(o.flag("--skip-infeasible"));

        // A boolean flag given a value is an error, not a silently unset
        // flag.
        let err = Opts::parse(
            &args(&["--skip-infeasible=on"]),
            &[],
            &["--skip-infeasible"],
        )
        .unwrap_err();
        assert_eq!(err, "`--skip-infeasible` takes no value");

        let err = Opts::parse(&args(&["--clokc=1500"]), &["--clock"], &[]).unwrap_err();
        assert!(err.contains("unknown option --clokc"), "{err}");
    }

    #[test]
    fn repeated_option_takes_the_last_value() {
        let o = Opts::parse(
            &args(&["--clock", "1000", "--clock", "2000"]),
            &["--clock"],
            &[],
        )
        .unwrap();
        assert_eq!(o.get("--clock"), Some("2000"));
    }
}
