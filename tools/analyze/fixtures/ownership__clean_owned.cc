// Selftest fixture: code the ownership check must accept — owned
// allocations, placement new, deleted functions, allocation-function
// declarations, the <new> header, and words that only contain "new".

#include <memory>
#include <new>
#include <string>
#include <vector>

namespace fixture
{

struct Node
{
    Node() = default;
    Node(const Node &) = delete;
    Node &operator=(const Node &) = delete;

    static void *operator new(std::size_t size);
    static void operator delete(void *p);

    int value = 0;
};

int
owned(int renew)
{
    auto node = std::make_unique<Node>();
    auto shared = std::make_shared<std::vector<int>>(4, renew);
    alignas(Node) unsigned char buf[sizeof(Node)];
    Node *inPlace = new (buf) Node;
    const int newPc = inPlace->value;
    const std::string prose = "a naked new Node in a string";
    return node->value + (*shared)[0] + newPc + int(prose.size());
}

} // namespace fixture
