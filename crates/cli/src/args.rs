//! Hand-rolled argument parsing for the `sft` tool.

use std::collections::BTreeMap;
use std::fmt;

/// The usage text shown by `sft help` and on parse errors.
pub const USAGE: &str = "\
sft — service function tree embedding for NFV multicast

USAGE:
  sft <info|solve|exact|batch|serve|client|workload|help> [--<flag> <value>]...

TOPOLOGIES (--topology):
  palmetto          the 45-node Palmetto backbone
  palmetto:<n>      the first n Palmetto cities (connected prefix)
  abilene           the 11-node Abilene/Internet2 backbone
  er:<n>            Erdős–Rényi, n nodes, Euclidean costs (use --seed)
  geo:<n>           random geometric, n nodes (use --seed)
  grid:<r>x<c>      r x c grid, unit costs
  fat-tree:<k>      k-ary fat-tree datacenter fabric
  waxman:<n>[:seed][:bw][:lat]
                    Waxman random WAN, n nodes, locality-biased edges
                    (an embedded seed overrides --seed, so the spec
                    string alone pins the instance; an optional third
                    field puts bandwidth bw on every link, an optional
                    fourth puts propagation latency lat on every link)

Each FLAGS section below names the subcommands that read its flags; a
flag outside every section of its subcommand is an error.

COMMON FLAGS (info, solve, exact, batch, serve, workload):
  --topology <spec>     the substrate, see TOPOLOGIES (required)
  --seed <u64>          RNG seed (default 0)

NETWORK FLAGS (solve, exact, batch, serve, workload):
  --capacity <f64>      per-server capacity (default 3)
  --link-bw <f64>       uniform link bandwidth capacity on every edge
                        (default none = uncapacitated links; tasks with
                        a `bandwidth` field then consume link capacity
                        and are refused rather than oversubscribe)
  --link-latency <f64>  uniform propagation latency on every edge
                        (default none; delay math then falls back to
                        edge weights, so delay == cost)
  --servers <n>         number of stride-spaced NFV server nodes
                        (default 0 = every node is a server)
  --setup-cost <f64>    uniform VNF setup cost (default 1)
  --sfc <k>             VNF catalog size, types 0..k (default 3); solve
                        and exact embed the chain of all k types; batch,
                        serve and workload tasks name types < k

SOLVE / EXACT FLAGS (solve, exact):
  --source <node>       source node index (required)
  --dests <a,b,c>       destination node indices (required)
  --delay-budget <ms>   end-to-end delay budget per destination; the
                        solve repairs routes to meet it or fails with
                        `delay_infeasible` (default none)

SOLVE FLAGS (solve):
  --strategy <msa|sca|rsa>   stage-1 algorithm (default msa)
  --no-opa              skip stage 2
  --stats               print embedding statistics
  --dot <file>          write the physical embedding as DOT
  --sft-dot <file>      write the logical SFT as DOT

EXACT FLAGS (exact):
  --max-nodes <n>       branch-and-bound node budget
  --time-limit <secs>   wall-clock budget
  --lp-backend <dense|revised|auto>
                        LP relaxation solver: dense tableau, sparse
                        revised simplex, or size-based choice (default
                        auto)

SERVICE FLAGS (batch, serve):
  A long-running service: shortest-path rows computed once per source on
  demand, shared Steiner cache; requests are versioned JSONL lines, see
  docs/service.md:
  {\"v\": 1, \"id\": 7, \"source\": 0, \"dests\": [7, 11], \"sfc\": [0, 1]}
  --strategy <msa|sca>  stage-1 algorithm (default msa; rsa is the
                        paper's random baseline, so the service
                        rejects it)
  --no-opa              skip stage 2
  --cache-cap <n>       bound the Steiner cache to n entries with
                        CLOCK eviction (default unbounded)

BATCH FLAGS (batch):
  --tasks <file.jsonl>  the task stream to solve (required)
  --mode <sequential|independent>
                        sequential = answer each line in arrival order
                        as stdin `sft serve` does (commits by default,
                        release lines served); independent = fan dry-run
                        solves across threads (default sequential)
  --threads <n>         worker threads for --mode independent; 0 = all
                        cores (default). Results are identical for every
                        value: one solve always runs on one thread (the
                        stage-1 sweep prunes with one incumbent)

SERVE FLAGS (serve):
  --listen <addr>       accept connections on a TCP host:port or a Unix
                        socket (unix:/path); runs until a client sends
                        {\"op\": \"shutdown\"} (default: stdin/stdout)
  --workers <n>         (--listen) worker threads (default 4)
  --queue-bound <n>     (--listen) pending-request bound before new work
                        is rejected as `overloaded` (default 128)
  --deadline-ms <ms>    default per-request deadline; requests still
                        unanswered when it expires are rejected as
                        `deadline_exceeded` (default none)
  --default-mode <quote|commit>
                        solve semantics for requests without a `mode`
                        field: quote = dry-run against the frozen
                        network (socket default), commit = update the
                        network (stdin default)
  --commit-retries <n>  (--listen) optimistic solve attempts per commit
                        (default 3); if all lose their race, a last
                        attempt solves and applies under the write lock,
                        so commits never answer `conflict` and never
                        partially apply
  --defrag-every-ms <ms>
                        (--listen) run the re-embed/defrag batch on this
                        period: live sessions are released and re-solved
                        against freed capacity, consolidating onto
                        shared instances (default off)

CLIENT FLAGS (client):
  --connect <addr>      server address to send --tasks to (required);
                        responses print ordered by id
  --tasks <file.jsonl>  the request stream, `-` for stdin (required)
  --mode <quote|commit> override the mode on every request

WORKLOAD FLAGS (workload):
  Emits a commit/release session stream as protocol JSONL: pipe it into
  `sft serve` or save it for `sft client`.
  --count <n>           sessions to generate (default 100)
  --arrivals <poisson>  arrival process (poisson: exponential
                        inter-arrival times at --rate)
  --holding <exp>       holding-time distribution (exp: mean --hold)
  --rate <f64>          arrivals per unit time (default 1)
  --hold <f64>          mean session lifetime (default 10); offered
                        load is rate*hold Erlangs
  --dests <n>           max destinations per task (default 3)
  --bandwidth <f64>     per-session bandwidth demand, drawn uniformly
                        from (0, this] per session (default none; the
                        stream is byte-identical without the flag)
  --delay-budget <ms>   per-session QoS delay budget, drawn uniformly
                        from (this/2, this] ms per session (default
                        none; the stream is byte-identical without
                        the flag)

EXAMPLES:
  sft info  --topology palmetto
  sft solve --topology er:50 --seed 7 --source 0 --dests 5,12,31 --sfc 3
  sft exact --topology grid:3x4 --source 0 --dests 7,11 --sfc 2
  sft batch --topology palmetto --tasks examples/palmetto_tasks.jsonl
  sft serve --topology abilene < tasks.jsonl
  sft serve --topology palmetto --listen 127.0.0.1:7070 --workers 8
  sft client --connect 127.0.0.1:7070 --tasks examples/palmetto_tasks.jsonl
  sft workload --topology palmetto --count 500 --rate 2 --hold 5 | sft serve --topology palmetto
";

/// A parse failure with a human-readable description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError(pub String);

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "error: {}", self.0)
    }
}

impl std::error::Error for ParseError {}

/// Parsed command line: one subcommand plus `--flag value` pairs
/// (boolean flags store `"true"`).
#[derive(Debug, Clone)]
pub struct Args {
    /// The subcommand, one of `sft <info|solve|exact|batch|serve|client|
    /// workload|help>`.
    pub command: String,
    flags: BTreeMap<String, String>,
}

/// Flags that take no value.
const BOOLEAN_FLAGS: [&str; 2] = ["no-opa", "stats"];

/// The subcommands [`Args::parse`] accepts.
const SUBCOMMANDS: [&str; 8] = [
    "info", "solve", "exact", "batch", "serve", "client", "workload", "help",
];

/// The flags each subcommand reads, one entry per FLAGS section of
/// [`USAGE`]: the subcommands a section names and the flags it lists
/// ([`BOOLEAN_FLAGS`] included), space-separated. Any other `--name` is a
/// parse error, so a misspelled, retired or misplaced flag is never
/// silently ignored.
const SECTIONS: [(&str, &str); 10] = [
    ("info solve exact batch serve workload", "topology seed"),
    (
        "solve exact batch serve workload",
        "capacity link-bw link-latency servers setup-cost sfc",
    ),
    ("solve exact", "source dests delay-budget"),
    ("solve", "strategy no-opa stats dot sft-dot"),
    ("exact", "max-nodes time-limit lp-backend"),
    ("batch serve", "strategy no-opa cache-cap"),
    ("batch", "tasks mode threads"),
    (
        "serve",
        "listen workers queue-bound deadline-ms default-mode commit-retries defrag-every-ms",
    ),
    ("client", "connect tasks mode"),
    (
        "workload",
        "count arrivals holding rate hold dests bandwidth delay-budget",
    ),
];

/// Whether `command` reads `--flag`.
fn accepts(command: &str, flag: &str) -> bool {
    SECTIONS.iter().any(|(commands, flags)| {
        commands.split(' ').any(|c| c == command) && flags.split(' ').any(|f| f == flag)
    })
}

impl Args {
    /// Parses pre-split arguments (without the program name).
    ///
    /// # Errors
    ///
    /// [`ParseError`] on a missing or unknown subcommand, malformed flags,
    /// flags the subcommand does not read, or missing flag values.
    pub fn parse(argv: &[String]) -> Result<Args, ParseError> {
        let mut it = argv.iter();
        let command = it
            .next()
            .ok_or_else(|| ParseError("missing subcommand".into()))?
            .clone();
        if !SUBCOMMANDS.contains(&command.as_str()) {
            return Err(ParseError(format!("unknown subcommand `{command}`")));
        }
        let mut flags = BTreeMap::new();
        while let Some(arg) = it.next() {
            let Some(name) = arg.strip_prefix("--") else {
                return Err(ParseError(format!(
                    "unexpected positional argument `{arg}`"
                )));
            };
            if name.is_empty() {
                return Err(ParseError("empty flag name".into()));
            }
            if !accepts(&command, name) {
                return Err(ParseError(format!(
                    "`sft {command}` takes no flag --{name}"
                )));
            }
            if BOOLEAN_FLAGS.contains(&name) {
                flags.insert(name.to_string(), "true".into());
                continue;
            }
            let value = it
                .next()
                .ok_or_else(|| ParseError(format!("flag --{name} needs a value")))?;
            flags.insert(name.to_string(), value.clone());
        }
        Ok(Args { command, flags })
    }

    /// Raw flag value, if present.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.flags.get(name).map(String::as_str)
    }

    /// Required string flag.
    ///
    /// # Errors
    ///
    /// [`ParseError`] when absent.
    pub fn require(&self, name: &str) -> Result<&str, ParseError> {
        self.get(name)
            .ok_or_else(|| ParseError(format!("missing required flag --{name}")))
    }

    /// Parsed flag with a default.
    ///
    /// # Errors
    ///
    /// [`ParseError`] when present but unparsable.
    pub fn parse_or<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, ParseError> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| ParseError(format!("cannot parse --{name} value `{v}`"))),
        }
    }

    /// Whether a boolean flag was given.
    pub fn flag(&self, name: &str) -> bool {
        self.get(name) == Some("true")
    }

    /// Parses a comma-separated list of numbers.
    ///
    /// # Errors
    ///
    /// [`ParseError`] on any unparsable element or an empty list.
    pub fn parse_list(&self, name: &str) -> Result<Vec<usize>, ParseError> {
        let raw = self.require(name)?;
        let out: Result<Vec<usize>, _> = raw.split(',').map(|s| s.trim().parse()).collect();
        let out = out.map_err(|_| ParseError(format!("cannot parse --{name} list `{raw}`")))?;
        if out.is_empty() {
            return Err(ParseError(format!("--{name} list is empty")));
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_subcommand_and_flags() {
        let a = Args::parse(&argv("solve --topology er:50 --seed 7 --no-opa")).unwrap();
        assert_eq!(a.command, "solve");
        assert_eq!(a.get("topology"), Some("er:50"));
        assert_eq!(a.parse_or("seed", 0u64).unwrap(), 7);
        assert!(a.flag("no-opa"));
        assert!(!a.flag("stats"));
    }

    /// Every flag of [`SECTIONS`], sorted, without repeats.
    fn known_flags() -> Vec<&'static str> {
        let mut known: Vec<&str> = SECTIONS.iter().flat_map(|(_, f)| f.split(' ')).collect();
        known.sort_unstable();
        known.dedup();
        known
    }

    #[test]
    fn usage_documents_exactly_the_known_flags() {
        let mut documented: Vec<&str> = USAGE
            .split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
            .filter_map(|word| word.strip_prefix("--"))
            .filter(|flag| !flag.is_empty())
            .collect();
        documented.sort_unstable();
        documented.dedup();
        assert_eq!(documented, known_flags());
        for flag in BOOLEAN_FLAGS {
            assert!(known_flags().contains(&flag), "{flag}");
        }
    }

    #[test]
    fn each_subcommand_takes_exactly_its_usage_sections() {
        // USAGE's `NAME FLAGS (a, b):` headings and the flags under each.
        let mut sections: Vec<(String, String)> = Vec::new();
        for line in USAGE.lines() {
            let heading = line
                .strip_suffix("):")
                .and_then(|l| l.split_once(" FLAGS ("));
            if let Some((_, names)) = heading {
                sections.push((names.replace(", ", " "), String::new()));
            } else if let (Some(rest), Some((_, flags))) =
                (line.strip_prefix("  --"), sections.last_mut())
            {
                let flag = rest.split_whitespace().next().unwrap();
                *flags = if flags.is_empty() {
                    flag.to_string()
                } else {
                    format!("{flags} {flag}")
                };
            }
        }
        let table: Vec<(String, String)> = SECTIONS
            .iter()
            .map(|(commands, flags)| (commands.to_string(), flags.to_string()))
            .collect();
        assert_eq!(sections, table);
        let listed = USAGE
            .split_once("sft <")
            .and_then(|(_, rest)| rest.split_once('>'))
            .unwrap()
            .0;
        assert_eq!(listed.split('|').collect::<Vec<_>>(), SUBCOMMANDS);
        // Every subcommand parses each of its flags and rejects the rest.
        for command in SUBCOMMANDS {
            let own: Vec<&str> = sections
                .iter()
                .filter(|(commands, _)| commands.split(' ').any(|c| c == command))
                .flat_map(|(_, flags)| flags.split(' '))
                .collect();
            for flag in known_flags() {
                let value = if BOOLEAN_FLAGS.contains(&flag) {
                    ""
                } else {
                    " 1"
                };
                let parsed = Args::parse(&argv(&format!("{command} --{flag}{value}")));
                assert_eq!(parsed.is_ok(), own.contains(&flag), "{command} --{flag}");
            }
        }
    }

    #[test]
    fn unknown_and_retired_flags_are_errors() {
        assert!(Args::parse(&argv("solve --distances lazy")).is_err());
        assert!(Args::parse(&argv("solve --thredas 4")).is_err());
        assert!(Args::parse(&argv("solve --no-such-flag 7")).is_err());
        // A flag another subcommand reads is no flag of this one.
        let err = Args::parse(&argv("solve --threads x")).unwrap_err();
        assert!(
            err.0.contains("--threads") && err.0.contains("sft solve"),
            "{err}"
        );
        let err = Args::parse(&argv("solve --workers 4 --count 9")).unwrap_err();
        assert!(
            err.0.contains("--workers") && err.0.contains("sft solve"),
            "{err}"
        );
        assert!(Args::parse(&argv("client --capacity 3")).is_err());
        assert!(Args::parse(&argv("help --seed 1")).is_err());
        assert!(Args::parse(&argv("batch --threads 4")).is_ok());
        assert!(Args::parse(&argv("help")).is_ok());
        let err = Args::parse(&argv("bogus --seed 1")).unwrap_err();
        assert!(err.0.contains("unknown subcommand `bogus`"), "{err}");
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(Args::parse(&[]).is_err());
        assert!(Args::parse(&argv("solve positional")).is_err());
        assert!(Args::parse(&argv("solve --seed")).is_err());
        assert!(Args::parse(&argv("solve --")).is_err());
    }

    #[test]
    fn typed_accessors_validate() {
        let a = Args::parse(&argv("solve --seed abc --dests 1,2,3")).unwrap();
        assert!(a.parse_or("seed", 0u64).is_err());
        assert_eq!(a.parse_list("dests").unwrap(), vec![1, 2, 3]);
        assert!(a.require("topology").is_err());
        let b = Args::parse(&argv("solve --dests 1,,3")).unwrap();
        assert!(b.parse_list("dests").is_err());
    }

    #[test]
    fn defaults_apply_when_flags_absent() {
        let a = Args::parse(&argv("solve")).unwrap();
        assert_eq!(a.parse_or("capacity", 3.0).unwrap(), 3.0);
        assert_eq!(a.parse_or("sfc", 3usize).unwrap(), 3);
    }
}
