(* Shared-medium Ethernet: wire timing, FIFO serialization, contention. *)

let feq = Alcotest.(check (float 1e-9))

let make () =
  let e = Sim.Engine.create () in
  let n =
    Hw.Ethernet.create ~engine:e ~bandwidth_bps:10e6 ~propagation:20e-6
      ~wire_overhead:50e-6 ~header_bytes:64 ()
  in
  (e, n)

let test_tx_time () =
  let _, n = make () in
  (* 1000 B payload + 64 B header = 8512 bits at 10 Mbit = 851.2 us,
     plus 50 us overhead. *)
  feq "tx" (50e-6 +. (8512.0 /. 10e6)) (Hw.Ethernet.tx_time n ~size:1000)

let test_delivery_time () =
  let e, n = make () in
  let at = ref 0.0 in
  let p =
    Hw.Packet.make ~src:0 ~dst:1 ~size:0 ~kind:"t" (fun () ->
        at := Sim.Engine.now e)
  in
  let predicted = Hw.Ethernet.send n p in
  ignore (Sim.Engine.run e);
  feq "delivered at predicted time" predicted !at;
  feq "tx + propagation"
    (50e-6 +. (8.0 *. 64.0 /. 10e6) +. 20e-6)
    !at

let test_serialization () =
  (* Two packets submitted at t=0 share the medium: the second is queued
     behind the first. *)
  let e, n = make () in
  let t1 = ref 0.0 and t2 = ref 0.0 in
  ignore
    (Hw.Ethernet.send n
       (Hw.Packet.make ~src:0 ~dst:1 ~size:936 ~kind:"a" (fun () ->
            t1 := Sim.Engine.now e)));
  ignore
    (Hw.Ethernet.send n
       (Hw.Packet.make ~src:2 ~dst:3 ~size:936 ~kind:"b" (fun () ->
            t2 := Sim.Engine.now e)));
  ignore (Sim.Engine.run e);
  let tx = Hw.Ethernet.tx_time n ~size:936 in
  feq "first" (tx +. 20e-6) !t1;
  feq "second queued behind first" ((2.0 *. tx) +. 20e-6) !t2;
  feq "queueing recorded" tx (Hw.Ethernet.total_queueing n)

let test_idle_gap_no_queueing () =
  let e, n = make () in
  ignore
    (Hw.Ethernet.send n (Hw.Packet.make ~src:0 ~dst:1 ~size:10 ~kind:"a"
         (fun () -> ())));
  ignore (Sim.Engine.run e);
  (* Medium long idle: next send starts immediately. *)
  ignore
    (Sim.Engine.schedule e ~delay:1.0 (fun () ->
         ignore
           (Hw.Ethernet.send n
              (Hw.Packet.make ~src:0 ~dst:1 ~size:10 ~kind:"b" (fun () -> ())))));
  ignore (Sim.Engine.run e);
  feq "no extra queueing" 0.0 (Hw.Ethernet.total_queueing n)

let test_stats () =
  let e, n = make () in
  for _ = 1 to 5 do
    ignore
      (Hw.Ethernet.send n
         (Hw.Packet.make ~src:0 ~dst:1 ~size:100 ~kind:"s" (fun () -> ())))
  done;
  ignore (Sim.Engine.run e);
  Alcotest.(check int) "packets" 5 (Hw.Ethernet.packets_sent n);
  Alcotest.(check int) "bytes" 500 (Hw.Ethernet.bytes_sent n);
  Hw.Ethernet.reset_stats n;
  Alcotest.(check int) "reset" 0 (Hw.Ethernet.packets_sent n)

let test_bandwidth_scaling () =
  let e = Sim.Engine.create () in
  let fast =
    Hw.Ethernet.create ~engine:e ~bandwidth_bps:100e6 ~wire_overhead:0.0
      ~propagation:0.0 ~header_bytes:0 ()
  in
  feq "100 Mbit" (8.0 *. 1000.0 /. 100e6) (Hw.Ethernet.tx_time fast ~size:1000)

let logged log name = Hw.Packet.make ~src:0 ~dst:1 ~size:100 ~kind:name
    (fun () -> log := name :: !log)

let test_lane_keeps_scheduling_order () =
  (* Back-to-back sends: the second delivery waits in the lane, out of
     the heap.  An event scheduled afterwards at exactly that delivery's
     time still runs after it, because the delivery's place among
     equal-time events was fixed when it was sent. *)
  let e, n = make () in
  let log = ref [] in
  ignore (Hw.Ethernet.send n (logged log "a"));
  let second = Hw.Ethernet.send n (logged log "b") in
  ignore
    (Sim.Engine.schedule_at e ~time:second (fun () -> log := "timer" :: !log));
  Alcotest.(check int) "lane head and timer in the heap" 2
    (Sim.Engine.pending e);
  ignore (Sim.Engine.run e);
  Alcotest.(check (list string)) "send order, then the timer"
    [ "a"; "b"; "timer" ] (List.rev !log)

let test_chooser_sees_held_deliveries () =
  (* Installing a chooser hands every held delivery to the heap, so the
     chooser is offered all of them. *)
  let e, n = make () in
  let log = ref [] in
  List.iter (fun k -> ignore (Hw.Ethernet.send n (logged log k))) [ "a"; "b"; "c" ];
  Alcotest.(check int) "only the head queued" 1 (Sim.Engine.pending e);
  let offered = ref 0 in
  Sim.Engine.set_chooser e
    (Some
       {
         Sim.Choice.pick =
           (fun _ cands ->
             offered := max !offered (Array.length cands);
             0);
         faults = false;
         note_access = ignore;
       });
  Alcotest.(check int) "all queued" 3 (Sim.Engine.pending e);
  ignore (Sim.Engine.run e);
  Sim.Engine.set_chooser e None;
  Alcotest.(check int) "all three offered" 3 !offered;
  Alcotest.(check (list string)) "each delivered once, in order"
    [ "a"; "b"; "c" ] (List.rev !log)

let suite =
  [
    Alcotest.test_case "tx time formula" `Quick test_tx_time;
    Alcotest.test_case "delivery time" `Quick test_delivery_time;
    Alcotest.test_case "FIFO serialization under contention" `Quick
      test_serialization;
    Alcotest.test_case "idle medium has no queueing" `Quick
      test_idle_gap_no_queueing;
    Alcotest.test_case "statistics" `Quick test_stats;
    Alcotest.test_case "bandwidth scaling" `Quick test_bandwidth_scaling;
    Alcotest.test_case "lane keeps scheduling order" `Quick
      test_lane_keeps_scheduling_order;
    Alcotest.test_case "chooser sees held deliveries" `Quick
      test_chooser_sees_held_deliveries;
  ]
