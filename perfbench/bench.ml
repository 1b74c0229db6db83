(* The repository benchmark: three workloads, end-to-end metrics with
   tracing off, per-layer metrics from a separate traced run.

     bench.exe --workload q8-plan|ws-mix|hot-read --seed N --seconds S
               --trace 0|1 --xqbang PATH

   Normally started through perfbench/run.py, which builds this
   executable and the xqbang server first. The last stdout line is the
   JSON result; everything before it is for people. *)

open Util

let end_to_end = [ "setup_s"; "throughput_ops_s"; "p50_ms"; "rss_peak_mb" ]

let per_layer =
  [
    "protocol.parse_ns"; "edge.requests_per_batch"; "edge.residual_us_p50"; "xml.serialize_ns";
    "plan_cache.hit_ratio"; "plan_cache.find_ns"; "compile.us"; "compile.parse_us";
    "compile.normalize_us"; "compile.static_us"; "compile.simplify_us"; "compile.ddo_elide_us";
    "compile.typing_us"; "compile.footprint_us"; "sched.queue_wait_us_p50";
    "sched.queue_wait_us_p99"; "sched.exclusive_ratio"; "eval.us"; "algebra.plan_us";
    "algebra.exec_ms"; "algebra.join_matches"; "snap.apply_ms"; "store.okey_builds_per_query";
    "gc.alloc_mwords_per_op"; "gc.major_per_op"; "wal.fsyncs_per_write"; "wal.frames_per_fsync";
    "wal.bytes_per_write"; "wal.fsync_us_p50"; "wal.fsync_us_p99"; "wal.checkpoints";
    "wal.commit_us"; "codec.encode_ns"; "fiber.roundtrip_ns"; "xml.load_ms"; "store.nodes";
    "trace.overhead_pct";
  ]

let workloads = [ ("q8-plan", Q8_plan.run); ("ws-mix", Ws_mix.run); ("hot-read", Hot_read.run) ]

let rec rm_rf path =
  match Unix.lstat path with
  | { st_kind = S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (ENOENT, _, _) -> ()

(* The declared metric set, in declaration order; a missing or extra
   name is a benchmark bug. *)
let select names (ms : metric list) =
  let extra = List.filter (fun x -> not (List.mem x.name names)) ms in
  if extra <> [] then failwith ("undeclared metric " ^ (List.hd extra).name);
  List.map
    (fun n ->
      match List.find_opt (fun x -> x.name = n) ms with
      | Some x -> x
      | None -> failwith ("metric not measured: " ^ n))
    names

let main () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let xqbang = ref "" and gen = ref "" and out = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME q8-plan | ws-mix | hot-read");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 per-layer traced run");
      ("--xqbang", Arg.Set_string xqbang, "PATH the server binary");
      ("--gen", Arg.Set_string gen, "SHAPE (internal) write one document");
      ("--out", Arg.Set_string out, "PATH (internal) document path");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1 --xqbang PATH";
  if !gen <> "" then Inputs.write_xml (Inputs.shape_of_name !gen) !seed !out
  else begin
    let run_fn =
      match List.assoc_opt !workload workloads with
      | Some f -> f
      | None -> raise (Arg.Bad ("unknown workload " ^ !workload))
    in
    if not (Sys.file_exists !xqbang) then failwith ("no server binary at " ^ !xqbang);
    let root = Filename.concat (Sys.getcwd ()) ".perfbench_run" in
    (try Unix.mkdir root 0o755 with Unix.Unix_error (EEXIST, _, _) -> ());
    let dir = Filename.concat root (Printf.sprintf "%s-s%d-%d" !workload !seed (Unix.getpid ())) in
    Unix.mkdir dir 0o755;
    (* every file the run or its children leave behind lands in [dir] *)
    Sys.chdir dir;
    let rc =
      { seed = !seed; seconds = !seconds; trace = !trace = 1; dir; exe = !xqbang; spans = Spans.create () }
    in
    Printf.printf "workload %s, seed %d, %g s, trace %d\n%!" !workload !seed !seconds !trace;
    let o = Fun.protect ~finally:(fun () -> Sys.chdir root; rm_rf dir) (fun () -> run_fn rc) in
    let metrics = select (if rc.trace then per_layer else end_to_end) o.metrics in
    report_table "workload-specific figures:"
      (List.map (fun x -> (x.name, x.value, x.unit_, "")) o.extra);
    if rc.trace then begin
      let path = Filename.concat root (Printf.sprintf "trace-%s-s%d.json" !workload !seed) in
      Spans.write rc.spans path;
      Printf.printf "benchmark-side spans: %s\n" path;
      report_table "span self times (median us):"
        (List.map
           (fun (n, s) -> (n, Samples.median s /. 1e3, "us", Printf.sprintf "n=%d" (Samples.count s)))
           (Spans.self_times rc.spans))
    end;
    report_table
      (if rc.trace then "per-layer metrics (-> the end-to-end metric each should move):"
       else "end-to-end metrics:")
      (List.map
         (fun x -> (x.name, x.value, x.unit_, if rc.trace then Layers.moves_of x.name else ""))
         metrics);
    result_line ~correct:o.correct ~attempted:o.attempted ~failed:o.failed metrics;
    if not o.correct then exit 1
  end

let () =
  try main () with
  | Arg.Bad msg | Failure msg ->
    prerr_endline ("perfbench: " ^ msg);
    exit 2
  | e ->
    prerr_endline ("perfbench: " ^ Printexc.to_string e);
    exit 2
