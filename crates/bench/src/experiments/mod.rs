//! The experiment registry: every table and figure of the paper maps to
//! one entry here, and `experiments list` prints the index.

pub mod effectiveness;
pub mod example2;
pub mod methods;
pub mod mining_cost;
pub mod querying;
pub mod sec7;
pub mod tables;

use crate::context::ExperimentContext;
use crate::report::Report;

/// One runnable experiment.
pub struct Experiment {
    /// CLI id (`fig3-accuracy-k`, …).
    pub id: &'static str,
    /// Which paper artifact it regenerates.
    pub artifact: &'static str,
    /// Runner.
    pub run: fn(&ExperimentContext) -> Vec<Report>,
}

/// The catalogue, in paper order.
pub fn all() -> Vec<Experiment> {
    vec![
        Experiment {
            id: "table1",
            artifact: "Table I / Section II case study",
            run: tables::table1,
        },
        Experiment { id: "table2", artifact: "Table II dataset properties", run: tables::table2 },
        Experiment {
            id: "fig3-accuracy-k",
            artifact: "Fig. 3a-e accuracy vs K",
            run: effectiveness::accuracy_vs_k,
        },
        Experiment {
            id: "fig3-accuracy-n",
            artifact: "Fig. 3f-i accuracy vs n",
            run: effectiveness::accuracy_vs_n,
        },
        Experiment {
            id: "fig4-accuracy-s",
            artifact: "Fig. 3j, 4a-c accuracy vs s",
            run: effectiveness::accuracy_vs_s,
        },
        Experiment { id: "fig4-ndcg", artifact: "Fig. 4d NDCG", run: effectiveness::ndcg_all },
        Experiment {
            id: "fig4-ndcg-s",
            artifact: "Fig. 4e NDCG vs s",
            run: effectiveness::ndcg_vs_s,
        },
        Experiment {
            id: "fig5-space-n",
            artifact: "Fig. 5a,b miner space vs n",
            run: mining_cost::space_vs_n,
        },
        Experiment {
            id: "fig5-space-s",
            artifact: "Fig. 5c,d AT space vs s",
            run: mining_cost::space_vs_s,
        },
        Experiment {
            id: "fig5-time-k",
            artifact: "Fig. 5e,f miner runtime vs K",
            run: mining_cost::time_vs_k,
        },
        Experiment {
            id: "fig5-time-n",
            artifact: "Fig. 5g,h miner runtime vs n",
            run: mining_cost::time_vs_n,
        },
        Experiment {
            id: "fig5-time-s",
            artifact: "Fig. 5i,j AT runtime vs s",
            run: mining_cost::time_vs_s,
        },
        Experiment {
            id: "fig6-query-k",
            artifact: "Fig. 6a-e query time vs K (workload W1)",
            run: querying::query_vs_k,
        },
        Experiment {
            id: "fig6-query-p",
            artifact: "Fig. 6f-j query time vs p (workload W2,p)",
            run: querying::query_vs_p,
        },
        Experiment {
            id: "fig6-size-k",
            artifact: "Fig. 6k-m index size vs K",
            run: querying::size_vs_k,
        },
        Experiment {
            id: "fig6-size-n",
            artifact: "Fig. 6n-p index size vs n",
            run: querying::size_vs_n,
        },
        Experiment {
            id: "fig6-build-k",
            artifact: "Fig. 6q,r construction time vs K",
            run: querying::build_vs_k,
        },
        Experiment {
            id: "fig6-build-n",
            artifact: "Fig. 6s,t construction time vs n",
            run: querying::build_vs_n,
        },
        Experiment {
            id: "example2",
            artifact: "Example 2 frequent-pattern speedup",
            run: example2::run,
        },
        Experiment {
            id: "sec7-adversarial",
            artifact: "Section VII (AB)^{n/2} failure",
            run: sec7::run,
        },
    ]
}

/// Looks up experiments by id; `"all"` returns the whole catalogue.
pub fn select(id: &str) -> Vec<Experiment> {
    if id == "all" {
        return all();
    }
    all().into_iter().filter(|e| e.id == id).collect()
}
