let make ?(parallelism = 28) (sim : Sim.t) : Platform.t =
  let new_mutex () =
    let m = Sim.Mutex.create sim in
    { Platform.lock = (fun () -> Sim.Mutex.lock m);
      unlock = (fun () -> Sim.Mutex.unlock m) }
  in
  let new_cond () =
    let c = Sim.Cond.create sim in
    {
      Platform.wait =
        (fun (m : Platform.mutex) ->
          Sim.Cond.park_unlocking c m.unlock;
          m.lock ());
      signal = (fun () -> Sim.Cond.signal c);
      broadcast = (fun () -> Sim.Cond.broadcast c);
    }
  in
  let new_sem capacity =
    let r = Sim.Resource.create sim ~capacity in
    { Platform.acquire = (fun () -> Sim.Resource.acquire r);
      release = (fun () -> Sim.Resource.release r) }
  in
  {
    Platform.name = "sim";
    now = (fun () -> Sim.now sim);
    consume = (fun ns -> if ns > 0 then Sim.wait sim ns);
    sleep = (fun ns -> Sim.wait sim (max ns 1));
    spawn = (fun name f -> Sim.spawn sim name f);
    new_mutex;
    new_cond;
    new_sem;
    parallelism;
  }
