(* q8-plan: the §4.3 Q8-with-inserts through the algebraic compiler
   ([Runner.run]) on a resident 1600-person / 3200-closed-auction
   document, each run followed by a purge of the inserted buyers. One
   in-process caller in a closed loop. *)

open Util
module E = Core.Engine
module R = Xqb_algebra.Runner
module S = Xqb_store.Store
module Trace = Xqb_obs.Trace

(* Fresh engine from the pre-generated XML; $purchasers is an empty
   element the query inserts into. Returns the engine and the
   load_string time. *)
let load path =
  let eng = E.create () in
  let xml = Inputs.read_file path in
  let t0 = now_ns () in
  let doc = S.load_string (E.store eng) xml in
  let load_ns = now_ns () - t0 in
  E.bind_node eng "auction" doc;
  let pdoc = S.load_string (E.store eng) "<purchasers/>" in
  E.bind_node eng "purchasers" (List.hd (S.children (E.store eng) pdoc));
  (eng, load_ns)

let purchasers eng =
  match E.lookup_global eng "purchasers" with
  | Some v -> Xqb_xdm.Value.singleton_node v
  | None -> assert false

let int_query eng q = Xqb_xdm.Value.to_integer (E.store eng) (E.run eng q)

(* Nodes reachable from the two bound roots: the store's live size
   (detached buyers are unreachable and do not count). *)
let reachable eng =
  int_query eng
    "count(($auction, $purchasers)/descendant-or-self::node()) + count(($auction, $purchasers)//@*)"

(* Runner.run ≡ Engine.run on the 100/200 instance, compared by the
   serialized result and the serialized $purchasers. *)
let equivalent small =
  let via_plan, _ = load small and via_eval, _ = load small in
  let r = R.run via_plan Inputs.q8_with_inserts in
  let v = E.run via_eval Inputs.q8_with_inserts in
  let show eng v = E.serialize eng v in
  let p eng = show eng (Xqb_xdm.Value.of_node (purchasers eng)) in
  show via_plan r.R.value = show via_eval v && p via_plan = p via_eval

let run (rc : run) =
  let doc = Filename.concat rc.dir "q8.xml" and small = Filename.concat rc.dir "q8small.xml" in
  Inputs.generate Q8 rc.seed doc;
  Inputs.generate Q8_small rc.seed small;
  if not (equivalent small) then failwith "Runner.run and Engine.run disagree on Q8 (100/200)";
  (* set-up, [setups] times: engine + load of the XML + bindings; only
     the last engine is kept *)
  let last = ref None in
  let times =
    List.init setups (fun _ ->
        last := None;
        Gc.compact ();
        let t0 = now_ns () in
        let eng, load_ns = load doc in
        let t = now_ns () - t0 in
        last := Some eng;
        (t, load_ns))
  in
  let setup_s = median_of (List.map (fun (t, _) -> secs_of_ns t) times) in
  let load_ms = median_of (List.map (fun (_, l) -> ms_of_ns l) times) in
  let eng0 = Option.get !last in
  let baseline_nodes = reachable eng0 in
  (* the first answer is the expected answer of every later run *)
  let first = R.run eng0 Inputs.q8_with_inserts in
  let expected = E.serialize eng0 first.R.value in
  let matches = first.R.stats.matches in
  ignore (R.run eng0 Inputs.purge);
  let eng = ref eng0 and block = 8 in
  let nodes_ok = ref true in
  (* A block: a fresh engine on the same XML, one untimed warm-up cycle,
     then [block] timed cycles. Purged buyers stay allocated (detach
     semantics), so a resident engine would grow with every cycle and a
     faster program would run on a bigger heap; blocks keep the work
     per timed cycle independent of speed. *)
  let new_block () =
    if reachable !eng <> baseline_nodes then nodes_ok := false;
    eng := fst (load doc);
    Gc.compact ();
    let r = R.run !eng Inputs.q8_with_inserts in
    if E.serialize !eng r.R.value <> expected then failwith "warm-up: Q8 answer differs";
    if S.child_count (E.store !eng) (purchasers !eng) <> matches then
      failwith "warm-up: $purchasers <> join matches";
    ignore (R.run !eng Inputs.purge)
  in
  new_block ();
  let q8 = Samples.create () and q8_traced = Samples.create () and purge = Samples.create () in
  let failures = Failures.create () in
  let attempted = ref 0 and cycles = ref 0 and busy_ns = ref 0 in
  let okeys = Samples.create () in
  let exec = Samples.create () and snap = Samples.create () and resid = Samples.create () in
  let alloc = Samples.create () and major = Samples.create () in
  (* GC counters of the whole process, drained from the runtime's event
     ring right now (the traced half runs Gc_tel) *)
  let gc_now () =
    Xqb_obs.Gc_tel.poll ();
    Xqb_obs.Json.parse_exn (Xqb_obs.Gc_tel.stats_json ())
  in
  (* one timed cycle; [tracer] adds the engine's spans and the traced
     run's per-cycle counters *)
  let cycle ~traced =
    if !cycles mod block = 0 && !cycles > 0 then new_block ();
    let eng = !eng in
    let store = E.store eng and pnode = purchasers eng in
    let req = !cycles in
    let gc0 = if traced then gc_now () else Xqb_obs.Json.Null in
    let sp = Spans.open_ rc.spans ~req "q8.cycle" in
    let tr = if traced then Some (Trace.create ()) else None in
    let ok0 = S.order_key_builds store in
    let call name text =
      let c = Spans.open_ rc.spans ~parent:sp.id ~req name in
      let r =
        match tr with
        | None -> R.run eng text
        | Some t -> E.with_tracer eng (Some t) (fun () -> R.run eng text)
      in
      Spans.close c;
      (r, c)
    in
    let r, c = call "runner.run q8" Inputs.q8_with_inserts in
    incr attempted;
    Samples.add (if traced then q8_traced else q8) (ms_of_ns (c.end_ns - c.start_ns));
    if E.serialize eng r.R.value <> expected then Failures.add failures "wrong:q8-result"
    else if S.child_count store pnode <> r.R.stats.matches || r.R.stats.matches <> matches then
      Failures.add failures "wrong:purchasers<>matches";
    (match tr with
    | Some t ->
      Samples.add okeys (float_of_int (S.order_key_builds store - ok0));
      let phases = Trace.phase_totals t in
      let get k = float_of_int (Option.value ~default:0 (List.assoc_opt k phases)) in
      Samples.add exec (get "exec.plan");
      Samples.add snap (get "snap.apply");
      let spans = Trace.spans t in
      Spans.import rc.spans ~parent:c.id ~req
        (List.map
           (fun (s : Trace.span) ->
             (s.id, s.parent, "engine." ^ s.name, s.start_ns, s.start_ns + s.dur_ns))
           spans);
      let roots =
        List.fold_left (fun acc (s : Trace.span) -> if s.parent < 0 then acc + s.dur_ns else acc) 0 spans
      in
      Samples.add resid (float_of_int (c.end_ns - c.start_ns - roots))
    | None -> ());
    let _, c = call "runner.run purge" Inputs.purge in
    incr attempted;
    Samples.add purge (ms_of_ns (c.end_ns - c.start_ns));
    if S.child_count store pnode <> 0 then Failures.add failures "wrong:purge-left-buyers";
    if traced && reachable eng <> baseline_nodes then nodes_ok := false;
    Spans.close sp;
    if traced then begin
      let gc1 = gc_now () in
      let d k = Wire.num gc1 [ k ] -. Wire.num gc0 [ k ] in
      Samples.add alloc (d "allocated_words");
      Samples.add major (d "major_slices")
    end;
    incr cycles;
    busy_ns := !busy_ns + (now_ns () - sp.start_ns)
  in
  (* cycles per second of timed cycles (block changes excluded) *)
  let loop ~traced seconds =
    let n0 = !cycles and b0 = !busy_ns in
    let t_end = now_ns () + int_of_float (seconds *. 1e9) in
    while now_ns () < t_end do
      let traced = traced !cycles in
      rc.spans.on <- traced;
      cycle ~traced
    done;
    rc.spans.on <- false;
    float_of_int (!cycles - n0) /. secs_of_ns (!busy_ns - b0)
  in
  let failed () = Failures.total failures in
  if not rc.trace then begin
    let tput = loop ~traced:(fun _ -> false) rc.seconds in
    let end_nodes = reachable !eng in
    let q8s = Samples.sorted q8 in
    let p x = Samples.pct_sorted q8s x in
    Printf.printf "q8-plan: %d cycles, %d failed ops %s, store.nodes %d -> %d\n" !cycles
      (failed ()) (Failures.to_json failures) baseline_nodes end_nodes;
    {
      attempted = !attempted;
      failed = failed ();
      correct = !nodes_ok && end_nodes = baseline_nodes && Failures.wrong failures = 0;
      metrics =
        [
          m "setup_s" "s" setup_s;
          m "throughput_ops_s" "1/s" tput;
          m "p50_ms" "ms" (p 50.);
          m "rss_peak_mb" "MB" (vm_hwm_mb "self");
        ];
      extra =
        [
          m "q8_p50_ms" "ms" (p 50.);
          m "q8_p90_ms" "ms" (p 90.);
          m "purge_p50_ms" "ms" (Samples.median purge);
          m "error_ratio" "ratio" (float_of_int (failed ()) /. float_of_int !attempted);
          m "samples" "count" (float_of_int (Array.length q8s));
        ];
    }
  end
  else begin
    (* traced and untraced cycles alternate, so the tracing overhead
       (read off Q8 latency: traced cycles also run the store.nodes
       check after their purge) is not confounded with drift in host
       speed; the traced cycles feed the per-layer numbers *)
    Xqb_obs.Gc_tel.start ();
    ignore (loop ~traced:(fun i -> i mod 2 = 1) rc.seconds);
    Xqb_obs.Gc_tel.stop ();
    let reads = Inputs.hot_queries in
    let suite, (fs50, fs99) =
      Layers.suite ~eng:!eng ~texts:[| Inputs.q8_with_inserts; Inputs.purge |] ~reads ~dir:rc.dir
    in
    ignore (R.run !eng Inputs.purge);
    let sched = Layers.sched_metrics ~xml:(Inputs.read_file doc) reads in
    {
      attempted = !attempted;
      failed = failed ();
      correct = !nodes_ok && Failures.wrong failures = 0;
      metrics =
        suite @ sched
        @ [
            m "edge.requests_per_batch" "count" 0.;
            m "edge.residual_us_p50" "us" (Samples.median resid /. 1e3);
            m "plan_cache.hit_ratio" "ratio" 0.;
            m "algebra.exec_ms" "ms" (Samples.median exec /. 1e6);
            m "algebra.join_matches" "count" (float_of_int matches);
            m "snap.apply_ms" "ms" (Samples.median snap /. 1e6);
            m "store.okey_builds_per_query" "count" (Samples.median okeys);
            m "gc.alloc_mwords_per_op" "Mwords" (Samples.median alloc /. 1e6);
            m "gc.major_per_op" "count" (Samples.median major);
            m "wal.fsyncs_per_write" "count" 0.;
            m "wal.frames_per_fsync" "count" 0.;
            m "wal.bytes_per_write" "B" 0.;
            m "wal.fsync_us_p50" "us" (fs50 /. 1e3);
            m "wal.fsync_us_p99" "us" (fs99 /. 1e3);
            m "wal.checkpoints" "count" 0.;
            m "xml.load_ms" "ms" load_ms;
            m "store.nodes" "count" (float_of_int baseline_nodes);
            m "trace.overhead_pct" "%" ((Samples.median q8_traced /. Samples.median q8 -. 1.) *. 100.);
          ];
      extra = [];
    }
  end
