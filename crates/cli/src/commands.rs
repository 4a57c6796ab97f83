//! `lidc` subcommand implementations over the simulated testbed.
//!
//! Every invocation stands up a deterministic world (seeded via `--seed`),
//! performs the requested protocol interaction, and prints what a real
//! operator would see. The simulated clock makes hours-long genomics jobs
//! complete in milliseconds of wall time.

use lidc_baseline::chaos::{comparison_table, run_baseline_chaos, run_lidc_chaos, ChaosConfig};
use lidc_core::client::{ClientConfig, ScienceClient, Submit};
use lidc_core::cluster::{LidcCluster, LidcClusterConfig};
use lidc_core::naming::{data_prefix, ComputeRequest};
use lidc_core::overlay::{ClusterSpec, Overlay, OverlayConfig};
use lidc_core::placement::PlacementPolicy;
use lidc_datalake::catalog::Catalog;
use lidc_datalake::loader::DataLoader;
use lidc_datalake::repo::MemRepo;
use lidc_genomics::blast::{HUMAN_REFERENCE, HUMAN_REFERENCE_BYTES};
use lidc_genomics::sra::{kidney_series, paper_runs, rice_series};
use lidc_ndn::face::FaceIdAlloc;
use lidc_ndn::name::Name;
use lidc_simcore::bytesize::format_bytes;
use lidc_simcore::engine::{ActorId, Sim};
use lidc_simcore::time::SimDuration;

use crate::args::Args;

/// Exit-code-carrying command error.
pub type CmdResult = Result<(), String>;

/// Parse `--clusters name:latency[,name:latency...]` (default: the paper's
/// single GCP MicroK8s site).
fn cluster_specs(args: &Args) -> Result<Vec<ClusterSpec>, String> {
    let raw = args.get_or("clusters", "gcp-microk8s:5ms");
    raw.split(',')
        .map(|part| {
            let (name, lat) = part
                .split_once(':')
                .ok_or_else(|| format!("--clusters entry {part:?} must be name:latency"))?;
            let latency = SimDuration::parse(lat)
                .map_err(|e| format!("bad latency in {part:?}: {e}"))?;
            Ok(ClusterSpec::new(name, latency))
        })
        .collect()
}

fn placement(args: &Args) -> Result<PlacementPolicy, String> {
    Ok(match args.get_or("placement", "nearest") {
        "nearest" => PlacementPolicy::Nearest,
        "round-robin" => PlacementPolicy::RoundRobin,
        "adaptive" => PlacementPolicy::Adaptive,
        "least-loaded" => PlacementPolicy::LeastLoaded,
        "learned" => PlacementPolicy::Learned,
        other => return Err(format!("unknown --placement {other:?}")),
    })
}

fn build_world(args: &Args) -> Result<(Sim, Overlay, ActorId), String> {
    let seed = args.get_u64("seed", 42)?;
    let mut sim = Sim::new(seed);
    let defaults = OverlayConfig::default();
    // Access-router Content Store shape: entry capacity plus the byte
    // budget (0 = no byte limit; the default derives one 1 MiB segment per
    // entry slot from the capacity).
    let router_cs_capacity = args.get_u64("router-cs-capacity", defaults.router_cs_capacity as u64)? as usize;
    let router_cs_budget_bytes = args.get_u64(
        "cs-budget-bytes",
        lidc_ndn::tables::cs::default_budget_bytes(router_cs_capacity),
    )?;
    let overlay = Overlay::build(&mut sim, OverlayConfig {
        placement: placement(args)?,
        clusters: cluster_specs(args)?,
        router_cs_capacity,
        router_cs_budget_bytes,
        ..defaults
    });
    let alloc = overlay.alloc.clone();
    let client = ScienceClient::deploy(
        ClientConfig::default(),
        &mut sim,
        overlay.router,
        &alloc,
        "cli-client",
    );
    Ok((sim, overlay, client))
}

/// `lidc submit` — express a named computation and follow it to completion.
pub fn submit(args: &Args) -> CmdResult {
    let app = args.get_or("app", "BLAST").to_owned();
    let cpu = args.get_u64("cpu", 2)?;
    let mem = args.get_u64("mem", 4)?;
    let mut request = ComputeRequest::new(&app, cpu, mem);
    if let Some(srr) = args.get("srr") {
        request = request.with_param("srr", srr).with_param("ref", args.get_or("ref", "HUMAN"));
    }
    if let Some(input) = args.get("input") {
        request = request.with_param("input", input);
    }
    if let Some(url) = args.get("url") {
        request = ComputeRequest::from_http_url(url).map_err(|e| format!("bad --url: {e:?}"))?;
    }

    let (mut sim, overlay, client) = build_world(args)?;
    println!("overlay     : {}", overlay.member_names().join(", "));
    println!("placement   : {}", overlay.placement());
    println!("interest    : {}", request.to_name().to_uri());
    sim.send(client, Submit(request));

    let watch = args.has("watch");
    if watch {
        // Print periodic status snapshots while the job runs.
        let step = SimDuration::parse(args.get_or("watch-interval", "2h"))
            .map_err(|e| format!("bad --watch-interval: {e}"))?;
        loop {
            sim.run_for(step);
            let run = &sim.actor::<ScienceClient>(client).unwrap().runs()[0];
            let state = if run.error.is_some() {
                "Failed"
            } else if run.completed_at.is_some() {
                "Completed"
            } else if run.first_running_at.is_some() {
                "Running"
            } else {
                "Pending"
            };
            let eta = match run.last_eta_secs {
                Some(secs) if state == "Running" => {
                    format!(", eta {}", SimDuration::from_secs(secs))
                }
                _ => String::new(),
            };
            println!(
                "t+{:<12} {} (job {}, {} polls{eta})",
                sim.now().elapsed().to_string(),
                state,
                run.job_id.as_deref().unwrap_or("-"),
                run.polls
            );
            if run.completed_at.is_some() || run.error.is_some() {
                break;
            }
        }
        sim.run();
    } else {
        sim.run();
    }

    let run = &sim.actor::<ScienceClient>(client).unwrap().runs()[0];
    match (&run.error, run.completed_at) {
        (Some(e), _) => {
            println!("FAILED      : {e}");
            return Err(format!("job failed: {e}"));
        }
        (None, Some(_)) => {
            println!("cluster     : {}", run.cluster.as_deref().unwrap_or("-"));
            println!("job id      : {}", run.job_id.as_deref().unwrap_or("-"));
            println!("turnaround  : {}", run.turnaround().unwrap());
            println!(
                "result      : {} ({})",
                run.result_name.as_ref().map(Name::to_uri).unwrap_or_default(),
                format_bytes(run.result_size)
            );
        }
        _ => println!("job did not finish inside the simulation horizon"),
    }
    Ok(())
}

/// `lidc fetch` — retrieve a named object from the data lake.
pub fn fetch(args: &Args) -> CmdResult {
    let name = match (args.get("name"), args.get("srr")) {
        (Some(n), _) => Name::parse(n).map_err(|e| format!("bad --name: {e:?}"))?,
        (None, Some(srr)) => data_prefix().child_str("sra").child_str(srr),
        (None, None) => return Err("fetch needs --name </ndn/...> or --srr <id>".into()),
    };
    let (_sim, overlay, _client) = build_world(args)?;
    // Object metadata comes straight from the lake repo; the network
    // retrieval path is exercised by `submit` and the bench binaries.
    let repo = overlay.clusters[0].repo.clone();
    match repo.get(&name) {
        Some(content) => {
            println!("object      : {}", name.to_uri());
            println!("size        : {}", format_bytes(content.len()));
            println!(
                "segments    : {}",
                lidc_datalake::segment::segment_count(
                    content.len(),
                    lidc_datalake::segment::DEFAULT_SEGMENT_SIZE
                )
            );
            Ok(())
        }
        None => Err(format!("NACK: no such object {}", name.to_uri())),
    }
}

/// `lidc load-data` — the paper's §V-B data-loading tool.
pub fn load_data(args: &Args) -> CmdResult {
    let _ = args;
    let repo = MemRepo::shared();
    let mut loader = DataLoader::new().add(lidc_datalake::loader::DatasetSpec::new(
        Name::root().child_str("ref").child_str(HUMAN_REFERENCE),
        HUMAN_REFERENCE_BYTES,
        0xFEED,
        "human reference database",
    ));
    for run in paper_runs().into_iter().chain(rice_series()).chain(kidney_series()) {
        loader = loader.add(run.dataset_spec());
    }
    let stats = loader.load_into(repo.as_ref(), &data_prefix());
    println!(
        "loaded {} objects, {} into the data lake under {}",
        stats.objects,
        format_bytes(stats.bytes),
        data_prefix().to_uri()
    );
    println!("(human reference + 2 Table-I samples + 99 rice + 36 kidney series)");
    Ok(())
}

/// `lidc catalog` — list what a deployed cluster's data lake publishes.
pub fn catalog(args: &Args) -> CmdResult {
    let seed = args.get_u64("seed", 42)?;
    let mut sim = Sim::new(seed);
    let alloc = FaceIdAlloc::new();
    let cluster = LidcCluster::deploy(&mut sim, &alloc, LidcClusterConfig::named("gcp-microk8s"));
    let catalog = Catalog::load(cluster.repo.as_ref(), &data_prefix())
        .ok_or("no catalog published")?;
    let limit = args.get_u64("limit", 20)? as usize;
    println!("{} datasets, {} total", catalog.entries.len(), format_bytes(catalog.total_bytes()));
    for e in catalog.entries.iter().take(limit) {
        println!("{:>10}  {}  ({})", format_bytes(e.size), e.name.to_uri(), e.description);
    }
    if catalog.entries.len() > limit {
        println!("... {} more (raise --limit)", catalog.entries.len() - limit);
    }
    Ok(())
}

/// `lidc topology` — show the overlay as the network sees it.
pub fn topology(args: &Args) -> CmdResult {
    let (mut sim, overlay, _client) = build_world(args)?;
    sim.run();
    println!("placement policy : {}", overlay.placement());
    println!("members          :");
    for spec in cluster_specs(args)? {
        let face = overlay.face_of(&spec.name);
        println!(
            "  {:<16} wan latency {:<8} router face {:?}",
            spec.name,
            spec.latency.to_string(),
            face
        );
    }
    println!("anycast prefixes : /ndn/k8s/compute, /ndn/k8s/data (every member)");
    println!("routed prefixes  : /ndn/k8s/status/<member>, /ndn/k8s/data/results/<member>");
    Ok(())
}

/// `lidc experiment` — list the reproduction harnesses.
pub fn experiment(args: &Args) -> CmdResult {
    let _ = args;
    println!("experiment harnesses live in the lidc-bench crate:");
    for (bin, what) in [
        ("table1", "Table I — computation performance"),
        ("fig1_location_independence", "Fig. 1 — location-independent placement"),
        ("fig2_transparent_dispatch", "Fig. 2 — name-driven dispatch"),
        ("fig3_nodeport_path", "Fig. 3 — NodePort/service/DNS path"),
        ("fig4_name_service_mapping", "Fig. 4 — name → service mapping"),
        ("fig5_workflow_trace", "Fig. 5 — workflow protocol trace"),
        ("ablate_placement", "placement-policy ablation"),
        ("ablate_caching", "result-caching ablation"),
        ("ablate_aggregation", "PIT-aggregation ablation"),
        ("ablate_churn", "churn: LIDC vs centralized vs manual"),
        ("ablate_central_failure", "single-point-of-failure comparison"),
        ("ablate_scaling", "overlay scale sweep"),
        ("ablate_loss", "WAN packet-loss tolerance sweep"),
    ] {
        println!("  cargo run -p lidc-bench --release --bin {bin:<28} # {what}");
    }
    Ok(())
}

/// `lidc chaos` — run LIDC and the centralized baseline under the *same*
/// deterministic fault schedule and print the side-by-side outcome.
/// `--schedule` picks the storm: `standard` (a permanent cluster outage
/// plus transient node crashes), `byzantine` (one cluster's gateway
/// forges every reply — see docs/INTEGRITY.md), or `region-outage`
/// (a correlated two-cluster outage that heals).
pub fn chaos(args: &Args) -> CmdResult {
    let seed = args.get_u64("seed", 42)?;
    let mut cfg = match args.get_or("schedule", "standard") {
        "standard" => ChaosConfig::standard(seed),
        "byzantine" => ChaosConfig::byzantine(seed),
        "region-outage" => ChaosConfig::region_outage(seed),
        other => {
            return Err(format!(
                "unknown --schedule {other:?} (expected standard, byzantine, or region-outage)"
            ))
        }
    };
    cfg.jobs = u32::try_from(args.get_u64("jobs", u64::from(cfg.jobs))?)
        .map_err(|_| "--jobs out of range".to_owned())?;
    println!("fault schedule (seed {seed}):");
    for event in cfg.schedule.events() {
        println!("  {event}");
    }
    let lidc = run_lidc_chaos(&cfg);
    let baseline = run_baseline_chaos(&cfg);
    println!("\n{}", comparison_table(&[&lidc, &baseline]).to_markdown());
    println!("applied fault timeline (identical in both worlds):");
    for line in lidc.fault_timeline.lines() {
        println!("  {line}");
    }
    if lidc.fault_timeline != baseline.fault_timeline {
        return Err("fault timelines diverged between the two worlds".into());
    }
    Ok(())
}

/// `lidc help`.
pub fn help(args: &Args) -> CmdResult {
    let _ = args;
    println!(
        "lidc — location-independent data and compute (simulated testbed)

USAGE: lidc <command> [flags]

COMMANDS
  submit      submit a named computation and follow it to completion
              --app BLAST --srr SRR2931415 [--ref HUMAN] --cpu 2 --mem 4
              [--input NAME] [--url https://.../compute?...]
              [--watch] [--watch-interval 2h]  + world flags
  fetch       look up a data-lake object (--name /ndn/k8s/data/... | --srr ID)
              + world flags
  load-data   run the paper's data-loading tool and report what it published
  catalog     list the datasets a deployed cluster publishes [--seed N] [--limit N]
  topology    show overlay members, latencies and routed prefixes + world flags
  chaos       LIDC vs centralized baseline under one deterministic fault
              schedule [--seed N] [--jobs N]
              [--schedule standard|byzantine|region-outage]
  experiment  list the table/figure reproduction harnesses
  help        this text

WORLD FLAGS (submit, fetch, topology)
  --seed N                  deterministic world seed (default 42)
  --clusters SPEC           name:latency[,name:latency...] (default gcp-microk8s:5ms)
  --placement POLICY        nearest|round-robin|adaptive|least-loaded|learned
                            (compute-prefix forwarding strategy, default nearest)
  --router-cs-capacity N    access-router Content Store entries (default 4096; 0 = off)
  --cs-budget-bytes N       access-router Content Store byte budget
                            (default capacity x 1 MiB; 0 = no byte limit)

A flag the command does not read is an error (exit code 2)."
    );
    Ok(())
}

/// Flags [`build_world`] reads: every command that builds the overlay
/// accepts them.
const WORLD_FLAGS: &[&str] = &[
    "seed",
    "clusters",
    "placement",
    "router-cs-capacity",
    "cs-budget-bytes",
];

/// One `lidc` subcommand and the flags it reads.
pub struct Command {
    /// The subcommand name.
    pub name: &'static str,
    /// Its implementation.
    pub run: fn(&Args) -> CmdResult,
    /// Flags the command reads itself.
    flags: &'static [&'static str],
    /// Whether it builds the overlay (and so also reads [`WORLD_FLAGS`]).
    builds_world: bool,
}

impl Command {
    /// Reject any flag this command does not read, naming it.
    pub fn check_flags(&self, args: &Args) -> CmdResult {
        let accepted = |flag: &str| {
            self.flags.contains(&flag) || (self.builds_world && WORLD_FLAGS.contains(&flag))
        };
        match args.flags.keys().find(|flag| !accepted(flag)) {
            Some(flag) => Err(format!(
                "`lidc {}` does not accept --{flag} (see `lidc help`)",
                self.name
            )),
            None => Ok(()),
        }
    }
}

const COMMANDS: &[Command] = &[
    Command {
        name: "submit",
        run: submit,
        flags: &[
            "app",
            "cpu",
            "mem",
            "srr",
            "ref",
            "input",
            "url",
            "watch",
            "watch-interval",
        ],
        builds_world: true,
    },
    Command {
        name: "fetch",
        run: fetch,
        flags: &["name", "srr"],
        builds_world: true,
    },
    Command {
        name: "load-data",
        run: load_data,
        flags: &[],
        builds_world: false,
    },
    Command {
        name: "catalog",
        run: catalog,
        flags: &["seed", "limit"],
        builds_world: false,
    },
    Command {
        name: "topology",
        run: topology,
        flags: &[],
        builds_world: true,
    },
    Command {
        name: "chaos",
        run: chaos,
        flags: &["seed", "jobs", "schedule"],
        builds_world: false,
    },
    Command {
        name: "experiment",
        run: experiment,
        flags: &[],
        builds_world: false,
    },
    Command {
        name: "help",
        run: help,
        flags: &[],
        builds_world: false,
    },
];

/// The subcommand called `name`, if there is one.
pub fn lookup(name: &str) -> Option<&'static Command> {
    COMMANDS.iter().find(|c| c.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(line: &str) -> CmdResult {
        let args = Args::parse(line.split_whitespace().map(String::from)).unwrap();
        let command = args.command.as_deref().unwrap();
        lookup(command).unwrap().check_flags(&args)
    }

    #[test]
    fn unknown_flag_is_rejected_by_name() {
        let err = check("chaos --job 4").unwrap_err();
        assert!(err.contains("--job"), "{err}");
        assert!(
            check("load-data --seed 1").is_err(),
            "load-data reads no flags"
        );
    }

    #[test]
    fn threads_flag_is_rejected() {
        for (line, flag) in [
            ("submit --threads 4", "--threads"),
            ("chaos --threads 4", "--threads"),
            ("submit --forwarder-shards 4", "--forwarder-shards"),
            ("chaos --forwarder-shards 4", "--forwarder-shards"),
        ] {
            let err = check(line).unwrap_err();
            assert!(err.contains(flag), "{line}: {err}");
        }
    }

    #[test]
    fn horizon_flag_is_rejected() {
        for line in ["chaos --horizon", "topology --horizon"] {
            let err = check(line).unwrap_err();
            assert!(err.contains("--horizon"), "{line}: {err}");
        }
    }

    #[test]
    fn every_flag_in_help_is_accepted() {
        let world = "--seed 1 --clusters a:5ms --placement nearest --router-cs-capacity 8 \
                     --cs-budget-bytes 0";
        for line in [
            format!(
                "submit --app BLAST --srr S --ref HUMAN --cpu 2 --mem 4 --input x --url u \
                 --watch --watch-interval 2h {world}"
            ),
            format!("fetch --name /n --srr S {world}"),
            format!("topology {world}"),
            "catalog --seed 1 --limit 5".to_owned(),
            "chaos --seed 1 --jobs 3 --schedule byzantine".to_owned(),
            "load-data".to_owned(),
            "experiment".to_owned(),
            "help".to_owned(),
        ] {
            assert_eq!(check(&line), Ok(()), "{line}");
        }
    }
}
