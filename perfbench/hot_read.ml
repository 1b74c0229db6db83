(* hot-read: independent users in an open loop. A read-only
   `xqbang serve --domains 2`; two connections send fifteen fixed cheap
   navigation queries (all plan-cache hits, all parallel-safe) at
   Poisson arrival times, stepping through three fixed total rates
   below capacity. Latency is timed from each request's due time. *)

open Util

(* Total offered rates (req/s, both connections together), frozen with
   the benchmark; the middle one is where read latency is reported. *)
let rates = [| 1000.; 2000.; 4000. |]

(* A step passes when its p99 stays under this limit (failures count
   as misses) and no backlog builds up. *)
let p99_limit_ms = 2.0

type step = {
  rate : float;
  lat : Samples.t;  (* ms from due time, successful replies *)
  late : Samples.t;  (* ms the generator sent after the due time *)
  mutable sent : int;
  mutable done_in_window : int;
  mutable backlog_at_end : int;
  mutable failed : int;
  mutable dur_s : float;
}

(* Poisson arrival offsets (ns from step start) and query indexes for
   one connection, from the seed. *)
let schedule ~seed ~conn ~step ~rate ~seconds =
  let rng = Random.State.make [| seed; conn; step; 0x407 |] in
  let per_conn = rate /. 2. in
  let rec go t acc =
    let t = t +. (-.log (1. -. Random.State.float rng 1.) /. per_conn) in
    if t >= seconds then Array.of_list (List.rev acc)
    else go t ((int_of_float (t *. 1e9), Random.State.int rng (Array.length Inputs.hot_queries)) :: acc)
  in
  go 0. []

(* Run one step: send every arrival of [plans] at its due time, drain,
   and fill [st]. *)
let run_step ?(spans = Spans.create ()) (sessions : Wire.session list) ~expected ~failures plans
    (st : step) ~on_reply =
  let conns = List.map (fun (s : Wire.session) -> s.conn) sessions in
  let sess = Array.of_list sessions in
  let pend = Array.map (fun _ -> Queue.create ()) sess in
  let next = Array.map (fun _ -> 0) sess in
  let lines =
    Array.map
      (fun (s : Wire.session) ->
        Array.map (fun q -> Printf.sprintf "QUERY %s %s" s.sid q) Inputs.hot_queries)
      sess
  in
  let dur_ns = Array.fold_left (fun acc p -> max acc (if p = [||] then 0 else fst p.(Array.length p - 1))) 0 plans in
  let t0 = now_ns () + 1_000_000 in
  let t_end = t0 + dur_ns in
  let drain_end = t_end + 2_000_000_000 in
  let backlog_taken = ref false in
  let outstanding () = Array.fold_left (fun acc q -> acc + Queue.length q) 0 pend in
  let unsent () = Array.exists2 (fun n p -> n < Array.length p) next plans in
  let on_line i line =
    let now = now_ns () in
    let p = Queue.pop pend.(i) in
    let qi, sp = p.Wire.tag in
    Spans.close sp;
    if now <= t_end then st.done_in_window <- st.done_in_window + 1;
    if line = expected.(qi) then Samples.add st.lat (ms_of_ns (now - p.due_ns))
    else begin
      st.failed <- st.failed + 1;
      Failures.add failures (Failures.kind_of_reply line)
    end;
    on_reply ()
  in
  while (unsent () || outstanding () > 0) && now_ns () < drain_end do
    let now = now_ns () in
    Array.iteri
      (fun i plan ->
        while next.(i) < Array.length plan && t0 + fst plan.(next.(i)) <= now do
          let off, qi = plan.(next.(i)) in
          Wire.queue sess.(i).conn lines.(i).(qi);
          let due = t0 + off in
          Samples.add st.late (ms_of_ns (now - due));
          let sp = Spans.open_ spans ~req:st.sent "client.request" in
          Queue.push { Wire.tag = (qi, sp); due_ns = due; sent_ns = now } pend.(i);
          st.sent <- st.sent + 1;
          next.(i) <- next.(i) + 1
        done)
      plans;
    List.iter Wire.flush conns;
    if (not !backlog_taken) && now >= t_end then begin
      backlog_taken := true;
      st.backlog_at_end <- outstanding ()
    end;
    let next_due =
      Array.fold_left min drain_end
        (Array.mapi
           (fun i plan -> if next.(i) < Array.length plan then t0 + fst plan.(next.(i)) else drain_end)
           plans)
    in
    let next_due = if !backlog_taken then next_due else min next_due t_end in
    Wire.poll_replies conns
      ~outstanding:(fun i -> Queue.length pend.(i))
      ~timeout_ns:(next_due - now_ns ()) ~on_line
  done;
  (* a reply still missing 2 s after the step would be matched to the
     next step's requests: the run cannot go on *)
  if outstanding () > 0 then
    failwith (Printf.sprintf "%d replies missing 2 s after the step ended" (outstanding ()));
  st.dur_s <- secs_of_ns dur_ns

let new_step rate =
  {
    rate;
    lat = Samples.create ();
    late = Samples.create ();
    sent = 0;
    done_in_window = 0;
    backlog_at_end = 0;
    failed = 0;
    dur_s = 0.;
  }

let achieved st = float_of_int st.done_in_window /. st.dur_s

(* p99 over every attempt, a failure counting as a miss. *)
let p99_with_misses st =
  let s = Samples.sorted st.lat in
  let n = Array.length s + st.failed in
  if n = 0 then nan
  else
    let k = int_of_float (Float.ceil (0.99 *. float_of_int n)) in
    if k > Array.length s then infinity else s.(max 0 (k - 1))

let passes st =
  p99_with_misses st <= p99_limit_ms
  && float_of_int st.backlog_at_end <= (st.rate *. p99_limit_ms /. 1e3) +. 8.

let run (rc : run) =
  let doc = Filename.concat rc.dir "scale4.xml" in
  Inputs.generate Scale4 rc.seed doc;
  let eng = Inputs.engine_of_file doc in
  let expected =
    Array.map (fun q -> "OK " ^ Inputs.reply_of eng (Core.Engine.run eng q)) Inputs.hot_queries
  in
  (* the middle step, where read latency is reported, gets half the run *)
  let step_s = [| rc.seconds /. 4.; rc.seconds /. 2.; rc.seconds /. 4. |] in
  let plans_for step rate seconds =
    Array.init 2 (fun conn -> schedule ~seed:rc.seed ~conn ~step ~rate ~seconds)
  in
  let plans = Array.mapi (fun i r -> plans_for i r step_s.(i)) rates in
  let srv, sessions, setup_s, load_ms =
    Wire.boot_many ~exe:rc.exe ~args:(fun _ -> [ "--domains"; "2" ]) ~dir:rc.dir ~doc ~conns:2 ~declare:[]
  in
  Fun.protect ~finally:(fun () -> Wire.shutdown (srv, sessions)) @@ fun () ->
  let s0 = List.hd sessions in
  let nodes = float_of_int (Inputs.doc_nodes eng) in
  let failures = Failures.create () in
  (* warm-up: every query into the plan cache, both sessions *)
  List.iter
    (fun (s : Wire.session) ->
      for _ = 1 to 20 do
        Array.iteri
          (fun i q ->
            let r = Wire.request s.conn (Printf.sprintf "QUERY %s %s" s.sid q) in
            if r <> expected.(i) then Failures.add failures (Failures.kind_of_reply r))
          Inputs.hot_queries
      done)
    sessions;
  let hwm = ref nan and replies = ref 0 in
  let on_reply () =
    incr replies;
    if !replies = 10_000 then hwm := Wire.hwm_mb srv
  in
  if not rc.trace then begin
    let steps = Array.map new_step rates in
    Array.iteri
      (fun i st -> run_step sessions ~expected ~failures plans.(i) st ~on_reply)
      steps;
    if Float.is_nan !hwm then hwm := Wire.hwm_mb srv;
    let mid = steps.(1) and top = steps.(2) in
    let sustained =
      Array.fold_left (fun acc st -> if passes st then achieved st else acc) 0. steps
    in
    Array.iter
      (fun st ->
        Printf.printf
          "hot-read step %6.0f req/s: achieved %8.1f, p50 %.3f ms, p99 %.3f ms, lateness p50 %.3f p99 %.3f ms, backlog %d, failed %d, %s\n"
          st.rate (achieved st) (Samples.median st.lat) (p99_with_misses st)
          (Samples.median st.late) (Samples.pct st.late 99.) st.backlog_at_end st.failed
          (if passes st then "meets the limit" else "misses the limit"))
      steps;
    let attempted = Array.fold_left (fun acc st -> acc + st.sent) 0 steps in
    let failed = Array.fold_left (fun acc st -> acc + st.failed) 0 steps in
    Printf.printf "hot-read: %d requests, %d failed %s\n" attempted failed (Failures.to_json failures);
    let lat = Samples.sorted mid.lat in
    {
      attempted;
      failed;
      correct = Failures.wrong failures = 0;
      metrics =
        [
          m "setup_s" "s" setup_s;
          m "throughput_ops_s" "1/s" (achieved top);
          m "p50_ms" "ms" (Samples.pct_sorted lat 50.);
          m "rss_peak_mb" "MB" !hwm;
        ];
      extra =
        [
          m "read_p50_ms" "ms" (Samples.pct_sorted lat 50.);
          m "read_p99_ms" "ms" (Samples.pct_sorted lat 99.);
          m "sustained_rps" "1/s" sustained;
          m "lateness_p99_ms" "ms" (Samples.pct mid.late 99.);
          m "error_ratio" "ratio" (float_of_int failed /. float_of_int (max 1 attempted));
          m "samples" "count" (float_of_int (Array.length lat));
        ];
    }
  end
  else begin
    (* the middle rate in four quarters, untraced and traced in turn:
       open-loop throughput is fixed by the schedule, so the overhead is
       read off latency, and alternating keeps it apart from drift in
       host speed *)
    let quarter = rc.seconds /. 4. in
    let plain = new_step rates.(1) and traced = new_step rates.(1) in
    let st0 = ref Xqb_obs.Json.Null and sent0 = ref 0 in
    for q = 0 to 3 do
      let on = q mod 2 = 1 in
      if q = 3 then begin
        st0 := Wire.stats s0.conn;
        sent0 := traced.sent
      end;
      rc.spans.on <- on;
      run_step ~spans:rc.spans sessions ~expected ~failures (plans_for (10 + q) rates.(1) quarter)
        (if on then traced else plain) ~on_reply
    done;
    let st0 = !st0 in
    rc.spans.on <- true;
    let st1 = Wire.stats s0.conn in
    let resid =
      Wire.sample_residuals rc.spans s0 ~n:200
        ~text:(fun i -> Inputs.hot_queries.(i mod Array.length Inputs.hot_queries))
        ~check:(fun i reply ->
          if reply <> expected.(i mod Array.length expected) then
            Failures.add failures (Failures.kind_of_reply reply))
    in
    rc.spans.on <- false;
    let d path = Wire.num st1 path -. Wire.num st0 path in
    let ratio a b = if b > 0. then a /. b else 0. in
    let ops = float_of_int (traced.sent - !sent0) in
    let hits = Wire.num st1 [ "plan_cache"; "hits" ] and misses = Wire.num st1 [ "plan_cache"; "misses" ] in
    Printf.printf "plan cache: %.0f hits / %.0f lookups\n" hits (hits +. misses);
    let suite, (fs50, fs99) =
      Layers.suite ~eng ~texts:Inputs.hot_queries ~reads:Inputs.hot_queries ~dir:rc.dir
    in
    let runner = Layers.runner_metrics eng Inputs.hot_queries ~n:60 in
    {
      (* warm-up, both halves and the TRACE-sampling pass *)
      attempted = (40 * Array.length Inputs.hot_queries) + plain.sent + traced.sent + 200;
      failed = Failures.total failures;
      correct = Failures.wrong failures = 0;
      metrics =
        suite @ runner
        @ [
            m "edge.requests_per_batch" "count" (ratio (d [ "edge"; "requests" ]) (d [ "edge"; "batches" ]));
            m "edge.residual_us_p50" "us" (Samples.median resid /. 1e3);
            m "plan_cache.hit_ratio" "ratio" (ratio hits (hits +. misses));
            m "sched.queue_wait_us_p50" "us" (Wire.num st1 [ "phases_ns"; "queue.wait"; "p50" ] /. 1e3);
            m "sched.queue_wait_us_p99" "us" (Wire.num st1 [ "phases_ns"; "queue.wait"; "p99" ] /. 1e3);
            m "sched.exclusive_ratio" "ratio"
              (ratio (Wire.num st1 [ "queries"; "exclusive" ]) (Wire.num st1 [ "queries"; "total" ]));
            m "gc.alloc_mwords_per_op" "Mwords" (ratio (d [ "gc"; "allocated_words" ]) ops /. 1e6);
            m "gc.major_per_op" "count" (ratio (d [ "gc"; "major_slices" ]) ops);
            m "wal.fsyncs_per_write" "count" 0.;
            m "wal.frames_per_fsync" "count" 0.;
            m "wal.bytes_per_write" "B" 0.;
            m "wal.fsync_us_p50" "us" (fs50 /. 1e3);
            m "wal.fsync_us_p99" "us" (fs99 /. 1e3);
            m "wal.checkpoints" "count" 0.;
            m "xml.load_ms" "ms" load_ms;
            m "store.nodes" "count" nodes;
            m "trace.overhead_pct" "%"
              ((Samples.median traced.lat /. Samples.median plain.lat -. 1.) *. 100.);
          ];
      extra = [];
    }
  end
