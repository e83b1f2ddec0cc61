//! `hbh-exp <experiment> [--flag value …]` — every experiment of the
//! reproduction behind one table; see [`hbh_experiments::registry`].
//!
//! ```text
//! cargo run --release --bin hbh-exp -- fig7 --topo isp --runs 500
//! cargo run --release --bin hbh-exp -- all --check 1
//! ```

fn main() -> std::process::ExitCode {
    hbh_experiments::registry::main()
}
