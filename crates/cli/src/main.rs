//! `adhls` — drive the HLS flows and the exploration engine from the
//! command line, no Rust required.
//!
//! ```text
//! adhls schedule <file.dsl> [--clock PS] [--flow conv|slow|slack] [--netlist PATH]
//! adhls explore  --workload <name> [axes...] [--json PATH] [--csv PATH]
//! adhls explore  <file.dsl> --clocks 1500,2000,2600
//! adhls serve    [--addr HOST:PORT | --stdio] [--cache-bytes N] [--workers N]
//! adhls report   [table4|table2]
//! ```
//!
//! Run `adhls help` for the full option list.

#![warn(missing_docs)]

mod cmd_explore;
mod cmd_report;
mod cmd_schedule;
mod cmd_serve;
mod opts;
mod profile;

use std::process::ExitCode;

const USAGE: &str = "\
adhls — area/delay-tradeoff-aware high-level synthesis (DATE 2012 reproduction)

USAGE:
    adhls schedule <file.dsl> [OPTIONS]
    adhls explore  (--workload <name> | <file.dsl>) [OPTIONS]
    adhls serve    [OPTIONS]
    adhls report   [table4|table2] | report --metrics <file>
    adhls help

SCHEDULE OPTIONS:
    --clock <PS>          clock period in picoseconds   [default: 2000]
    --flow <FLOW>         conv | slow | slack           [default: slack]
    --pipeline <II>       pipeline initiation interval  [default: off]
    --json                emit the result as JSON instead of a table
    --netlist <PATH>      dump the Verilog-flavored datapath/FSM netlist
                          (`-` for stdout; see docs/NETLIST.md)
    --profile             print a per-phase wall-time breakdown (stderr)
                          after the run; see docs/OBSERVABILITY.md

EXPLORE OPTIONS:
    --workload <NAME>     interpolation | idct | idct-table4 | fir |
                          matmul | random
    --clocks <LIST>       comma-separated clock periods (ps)
    --cycles <LIST>       comma-separated latency budgets (cycles)
    --pipeline <LIST>     comma-separated IIs; `none` for sequential
                          (idct only; default: none)
    --objectives <LIST>   comma-separated tradeoff axes the Pareto front
                          is extracted in: area | latency | power |
                          throughput; `;` separates several planes,
                          each reported separately   [default: all four]
    --constraint <C>      objective bound (`area<=1500`, `power<=40`,
                          `throughput>=250`); repeatable — fronts and
                          staircases only show the feasible region
    --threads <N>         worker threads (0 = all cores)  [default: 0]
    --serial              force the serial reference evaluator
    --skip-infeasible     drop unschedulable points instead of failing
    --front-only          print only the Pareto front
    --json <PATH>         write sweep + front JSON with its objective
                          space recorded (`-` for stdout)
    --csv <PATH>          write sweep CSV (`-` for stdout)
    --profile             print a per-phase wall-time breakdown (stderr)
                          after the run; see docs/OBSERVABILITY.md
    --metrics-out <PATH>  write the telemetry snapshot as JSON (`-` for
                          stdout); re-render it with `report --metrics`

ADAPTIVE EXPLORE OPTIONS (interpolation | idct | matmul):
    --adaptive            refine the front instead of sweeping the grid:
                          seed the axis corners/midpoints, bisect the
                          widest Pareto gaps, prune dominated cells
    --objectives <LIST>   the two-axis tradeoff plane refinement steers
                          through, e.g. `area,power` for power-aware
                          refinement; `area,latency;area,power` refines
                          both planes in ONE pass over one evaluator
                          (every evaluation shared)  [default: area,latency]
    --constraint <C>      objective bound (repeatable); refinement clips
                          its search to the feasible region and skips
                          provably-infeasible cells without evaluating
    --budget <N>          stop after evaluating N grid cells    [default: none]
    --gap-tol <T>         stop when no normalized front gap
                          exceeds T                             [default: 0.05]
    --warm-start <PATH>   seed refinement from a previously exported
                          front/sweep JSON (grid-named rows only; works
                          across objective spaces)

SERVE OPTIONS (line-delimited JSON protocol; see docs/PROTOCOL.md):
    --addr <HOST:PORT>    TCP listen address  [default: 127.0.0.1:7130;
                          port 0 picks a free port, printed on stdout]
    --stdio               serve one session on stdin/stdout instead of TCP
    --threads <N>         evaluator pool threads (0 = all cores) [default: 0]
    --cache-bytes <N>     byte budget for the cross-request result cache,
                          with optional k/m/g suffix    [default: unbounded]
    --strict              fail requests on unschedulable points instead of
                          skipping them
    --metrics-addr <A>    additionally expose Prometheus-format metrics
                          over HTTP on this address (port 0 picks a free
                          port, printed on stdout)
    --slow-ms <MS>        log requests slower than this threshold to
                          stderr (0 disables; single-pool mode only)
                                                        [default: off]
    --workers <N>         route requests over N in-process worker threads,
                          each over its own pool, with consistent-hashed
                          cache sharding (0 = classic single-pool mode)
                                                        [default: 0]
    --queue-cap <N>       per-worker in-flight cap; overflow gets a
                          structured `busy` result      [default: 64]

Exploring a DSL file sweeps --clocks only (the file fixes its own states).
`schedule` evaluates one point; `report` prints the paper's tables over the
full (area, latency, power, throughput) objective set — use
`explore --objectives` to project onto any tradeoff plane.
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, rest) = match args.split_first() {
        Some((cmd, rest)) => (cmd.as_str(), rest),
        None => {
            eprint!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match cmd {
        "schedule" => cmd_schedule::run(rest),
        "explore" => cmd_explore::run(rest),
        "serve" => cmd_serve::run(rest),
        "report" => cmd_report::run(rest),
        "help" | "--help" | "-h" => {
            print!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        other => Err(format!("unknown command `{other}` (try `adhls help`)")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}
