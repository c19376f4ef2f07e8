//! A fast, condensed verification gate: one assertion per paper claim,
//! small parameters, runs in seconds. The full experiment binaries
//! (fig*/table*/sim*/claim*) sweep far wider; this is the smoke check.

fn main() {
    println!("condensed verification of every paper claim:\n");
    for (name, ok) in pdl_bench::verify_all() {
        assert!(ok, "FAILED: {name}");
        println!("  ok  {name}");
    }
    println!("\nall condensed checks passed.");
}
