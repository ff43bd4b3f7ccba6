//! A shared-array service: the Section 9 motivating scenario.
//!
//! "A user program can, for example, create a memory object which is used
//! to represent a data array and provide access to that array to many
//! other programs through a server message interface. The clients of such
//! a service would only have to exchange a single message with the server
//! to get access to the array and, if other clients had already referenced
//! the data of the array, the physical memory cache of the array would be
//! directly accessible to the client with no further message traffic."
//!
//! Experiment E9 measures exactly that: messages and pager fills per
//! client, as a function of client arrival order.
//!
//! The service is one task on one thread, a [`ManagerTask`]: the attach
//! port and the array's memory object port are one port group.

use machcore::{DataManager, KernelConn, ManagerTask, Task};
use machipc::{OolBuffer, SendRight, Server, RPC_TIMEOUT};
use machsim::Machine;
use machvm::{VmError, VmProt};
use std::fmt;
use std::sync::Arc;

machcore::protocol! {
    /// Requests to the array service.
    #[derive(Debug)]
    pub enum ArrayRequest {
        /// Access to the array.
        Attach = ARRAY_ATTACH: 0x4601,
    }
}

machcore::protocol! {
    /// The array service's answer.
    #[derive(Debug)]
    pub enum ArrayReply {
        /// `(size, object)`: the array's size and memory object port.
        Attached(size: u64, object: SendRight) = ARRAY_OK: 0x4680,
    }
}

/// The pager behind the array: computes each page's contents on demand,
/// and keeps modified pages written back by the kernel so evicted writes
/// survive refaults.
struct ArrayPager {
    generator: Arc<dyn Fn(u64) -> u8 + Send + Sync>,
    /// Pages modified by clients and paged out, keyed by page offset.
    /// Stored per page: requests and write-backs may both span several
    /// pages (cluster paging), and their runs need not line up.
    written: std::collections::HashMap<u64, Vec<u8>>,
}

const ARRAY_PAGE: u64 = 4096;

impl DataManager for ArrayPager {
    fn init(&mut self, kernel: &KernelConn, object: u64) {
        // The array must stay cached between clients — the whole point of
        // the Section 9 scenario.
        kernel.cache(object, true);
    }

    fn data_request(
        &mut self,
        kernel: &KernelConn,
        object: u64,
        offset: u64,
        length: u64,
        _access: VmProt,
    ) {
        let mut data = Vec::with_capacity(length as usize);
        let mut page = offset;
        while page < offset + length {
            match self.written.get(&page) {
                Some(stored) => data.extend_from_slice(stored),
                None => data.extend((page..page + ARRAY_PAGE).map(|i| (self.generator)(i))),
            }
            page += ARRAY_PAGE;
        }
        kernel.data_provided(object, offset, OolBuffer::from_vec(data), VmProt::NONE);
    }

    fn data_write(&mut self, kernel: &KernelConn, object: u64, offset: u64, data: OolBuffer) {
        let bytes = data.len() as u64;
        for (i, chunk) in data.as_slice().chunks(ARRAY_PAGE as usize).enumerate() {
            self.written
                .insert(offset + i as u64 * ARRAY_PAGE, chunk.to_vec());
        }
        kernel.release_laundry(object, bytes);
    }
}

/// A server exporting one array as a memory object.
pub struct ArrayService {
    server: Server,
    size: u64,
}

impl fmt::Debug for ArrayService {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ArrayService({} bytes)", self.size)
    }
}

impl ArrayService {
    /// Starts an array service; `generator` defines element `i`'s value.
    pub fn start(
        machine: &Machine,
        size: u64,
        generator: impl Fn(u64) -> u8 + Send + Sync + 'static,
    ) -> Arc<ArrayService> {
        let mut task = ManagerTask::new(machine);
        let (_, object_port) = task.back(ArrayPager {
            generator: Arc::new(generator),
            written: std::collections::HashMap::new(),
        });
        let server = task.serve("array-server", move |_, msg| {
            let ArrayRequest::Attach = ArrayRequest::decode(msg).ok()?;
            Some(ArrayReply::Attached(size, object_port.clone()).encode())
        });
        Arc::new(ArrayService { server, size })
    }

    /// The service's RPC port.
    pub fn port(&self) -> &SendRight {
        self.server.port()
    }

    /// Client side: one RPC, then map the array. Returns `(addr, size)`.
    pub fn attach(task: &Task, service: &SendRight) -> Result<(u64, u64), VmError> {
        let reply = service.rpc(ArrayRequest::Attach.encode(), RPC_TIMEOUT, RPC_TIMEOUT);
        let Some(Ok(ArrayReply::Attached(size, object))) = reply.ok().map(ArrayReply::decode)
        else {
            return Err(VmError::ObjectDestroyed);
        };
        let addr = task.vm_allocate_with_pager(None, size, &object, 0)?;
        Ok((addr, size))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use machcore::{Kernel, KernelConfig};
    use machsim::stats::keys;

    #[test]
    fn single_message_then_cached_access() {
        let k = Kernel::boot(KernelConfig::default());
        let service = ArrayService::start(k.machine(), 16 * 4096, |i| (i % 251) as u8);
        // First client: pays one RPC plus pager fills.
        let t1 = Task::create(&k, "c1");
        let (a1, size) = ArrayService::attach(&t1, service.port()).unwrap();
        let mut buf = vec![0u8; size as usize];
        t1.read_memory(a1, &mut buf).unwrap();
        for (i, &b) in buf.iter().enumerate() {
            assert_eq!(b, (i % 251) as u8);
        }
        let fills_after_first = k.machine().stats.get(keys::VM_PAGER_FILLS);
        // Fills count request *messages*; a 16-page scan costs two
        // 8-page cluster requests.
        assert!(fills_after_first >= 16 / machcore::DEFAULT_CLUSTER_PAGES as u64);
        // Second client: one message, zero pager fills.
        let msgs_before = k.machine().stats.get(keys::MSG_SENT);
        let t2 = Task::create(&k, "c2");
        let (a2, _) = ArrayService::attach(&t2, service.port()).unwrap();
        t2.read_memory(a2, &mut buf).unwrap();
        assert_eq!(buf[5], 5);
        assert_eq!(
            k.machine().stats.get(keys::VM_PAGER_FILLS),
            fills_after_first,
            "second client caused no pager traffic"
        );
        // The attach RPC is 2 messages (request + reply).
        assert!(k.machine().stats.get(keys::MSG_SENT) - msgs_before <= 3);
    }

    #[test]
    fn a_reply_without_size_or_object_is_an_error_not_a_panic() {
        let k = Kernel::boot(KernelConfig::default());
        let task = Task::create(&k, "client");
        let ok = crate::fs::tests::bare_server(k.machine(), ARRAY_OK, 1);
        assert_eq!(
            ArrayService::attach(&task, &ok),
            Err(VmError::ObjectDestroyed)
        );
    }
}
